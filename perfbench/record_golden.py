"""Record ``golden.json``: the digest of the standard output of every
``specialize`` and ``expand`` command the ``queries`` workload can draw.

Before a digest is recorded, the output is checked against an independent
route, so the golden file holds only outputs known to be right:

* ``specialize``: the printed value is the value of the named form, and
  that value equals, by ``frac_eq``, the power-sum oracle (for the closed
  forms) or the first closed form (for the oracles); after ``--subst
  a=1,b=q^N`` it equals the direct evaluation on N letters (zero when the
  partition has more than N parts).
* ``expand``: the printed table is ``row_expansion_table``, and
  ``expansion_agreement`` holds for its degree: all six tables and the
  Heine product give the same polynomial.

Run it from the root of a checkout, at the commit whose outputs are the
golden contract (it takes about twenty seconds):

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qmono import cli  # noqa: E402
from qmono.algebra import FactoredFraction, frac_eq  # noqa: E402
from qmono.macdonald import expansion_agreement, row_expansion_table  # noqa: E402
from qmono.specialize import UNIVERSE_ABQ, monomial_spec, oracle_direct, oracle_powersum  # noqa: E402

import workloads  # noqa: E402

# expansion_agreement compares the tables as polynomials on this many letters.
AGREEMENT_LETTERS = 4


class GoldenError(Exception):
    pass


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise GoldenError(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def checked_specialize(argv) -> str:
    mu = cli.parse_partition(_option(argv, "--mu"))
    form = _option(argv, "--form")
    subst = _option(argv, "--subst")
    theorem1 = monomial_spec(mu, "theorem1").value
    if form == "oracle-direct":
        size = int(_option(argv, "--oracle-N"))
        value = oracle_direct(mu, size).value
        reference = theorem1.substitute(cli.parse_substitutions(f"a=1,b=q^{size}"))
    elif form == "oracle-powersum":
        value = oracle_powersum(mu).value
        reference = theorem1
    else:
        value = monomial_spec(mu, form).value
        reference = oracle_powersum(mu).value
    checks = [(value, reference)]
    if subst is not None:
        value = value.substitute(cli.parse_substitutions(subst))
        letters = int(subst.rsplit("^", 1)[1])
        if form != "oracle-direct":  # an oracle-direct value has no a or b
            reference = (
                oracle_direct(mu, letters).value
                if letters >= mu.length
                else FactoredFraction.zero(UNIVERSE_ABQ)
            )
        checks.append((value, reference))
    for got, want in checks:
        if not frac_eq(got, want):
            raise GoldenError(f"{' '.join(argv)}: disagrees with its independent route")
    return value.text() + "\n" + cli.dumps({"partition": mu.to_json(), **value.to_json()}) + "\n"


def checked_expand(argv, agreed: set) -> str:
    n = int(_option(argv, "--n"))
    basis = _option(argv, "--basis")
    if n not in agreed:
        if not expansion_agreement(n, min(n, AGREEMENT_LETTERS)):
            raise GoldenError(f"expansion tables disagree at degree {n}")
        agreed.add(n)
    table = row_expansion_table(n, cli._CLI_BASES[basis])
    if _option(argv, "--format") == "json":
        entries = [{"mu": mu.to_json(), "coefficient": c.to_json()} for mu, c in table.entries]
        return cli.dumps({"n": n, "basis": basis, "entries": entries}) + "\n"
    return "".join(f"{mu}  {c.text()}\n" for mu, c in table.entries)


def main() -> int:
    digests = set()
    agreed = set()
    for argv in workloads.golden_space():
        out = cli_stdout(argv)
        if argv[0] == "specialize":
            expected = checked_specialize(argv)
        else:
            expected = checked_expand(argv, agreed)
        if out != expected:
            raise GoldenError(f"{' '.join(argv)}: output is not the checked value")
        digests.add(workloads.digest(argv, out))
    doc = {
        "about": "sha256[:12] of each command's argv and stdout; see record_golden.py",
        "digests": sorted(digests),
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
