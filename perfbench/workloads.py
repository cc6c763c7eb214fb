"""Seeded command lists for the four benchmark workloads, and the
correctness gate every command's output must pass.

A workload is a list of ``qmono`` argv lists.  The same (workload, seed)
always gives the same list; it is built by ``generate`` and handed, argv by
argv, to ``qmono.cli.main``.  In ``queries`` the seed draws each command's
options and the order; the other three run the same commands in the same
order for every seed.

This module imports nothing from ``qmono``, so generating a workload costs
the same on every commit.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("queries", "symmetrized", "constants", "pooled")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# -- the queries input space ---------------------------------------------------

SPECIALIZE_FORMS = ("theorem1", "theorem3", "oracle-powersum", "oracle-direct")
SUBST_POWERS = (1, 2, 3, 4)  # --subst a=1,b=q^N
EXPAND_BASES = ("power", "monomial", "complete", "elementary", "deformed-h", "deformed-e")
EXPAND_DEGREES = (1, 2, 3, 4, 5)
EIGEN_CASES = tuple((n, N) for n in range(5) for N in (1, 2, 3))
QUERIES_SMALL = 40  # commands of the reduced queries pass


def _partitions(max_weight: int, max_length: int) -> tuple:
    """Partitions of weight 1..max_weight with at most max_length parts,
    each as a weakly decreasing tuple (same order on every commit)."""
    out = []

    def rec(rest, largest, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_length:
            return
        for part in range(min(rest, largest), 0, -1):
            rec(rest - part, part, prefix + [part])

    for weight in range(1, max_weight + 1):
        rec(weight, weight, [])
    return tuple(out)


SPECIALIZE_PARTITIONS = _partitions(8, 6)
POSITIVITY_PARTITIONS = _partitions(8, 5)


def _mu_text(parts) -> str:
    return ",".join(str(p) for p in parts)


def oracle_sizes(parts) -> range:
    """Alphabet sizes drawn for ``--form oracle-direct`` (at least the
    partition length; at most 6 letters, so 720 permutations)."""
    return range(len(parts), min(len(parts) + 2, 6) + 1)


def specialize_argv(parts, form, oracle_n=None, subst_power=None) -> list:
    argv = ["specialize", "--mu", _mu_text(parts), "--form", form]
    if form == "oracle-direct":
        argv += ["--oracle-N", str(oracle_n)]
    if subst_power is not None:
        argv += ["--subst", f"a=1,b=q^{subst_power}"]
    return argv


def expand_argv(n, basis, fmt) -> list:
    argv = ["expand", "--n", str(n), "--basis", basis]
    if fmt == "json":
        argv += ["--format", "json"]
    return argv


def golden_space():
    """Every specialize/expand argv that ``queries`` can draw; the golden
    digests cover exactly this set."""
    for parts in SPECIALIZE_PARTITIONS:
        for form in SPECIALIZE_FORMS:
            sizes = oracle_sizes(parts) if form == "oracle-direct" else (None,)
            for oracle_n in sizes:
                for power in (None,) + SUBST_POWERS:
                    yield specialize_argv(parts, form, oracle_n, power)
    for n in EXPAND_DEGREES:
        for basis in EXPAND_BASES:
            for fmt in ("text", "json"):
                yield expand_argv(n, basis, fmt)


def _queries(rng: random.Random) -> list:
    """One pass of ``queries``: every (partition, form) pair once, every
    positivity partition twice, every expand and eigencheck case four times
    (46% / 21% / 22% / 11% of 550 commands).  The seed draws the
    substitutions, the oracle sizes, the expand formats and the order.  The
    multiset of cases is the same for every seed, because a few of them cost
    a hundred times the median: drawing them at random would make the cost
    of a pass depend on the seed."""
    cmds = []
    for parts in SPECIALIZE_PARTITIONS:
        for form in SPECIALIZE_FORMS:
            oracle_n = rng.choice(oracle_sizes(parts)) if form == "oracle-direct" else None
            power = rng.choice(SUBST_POWERS) if rng.random() < 0.5 else None
            cmds.append(specialize_argv(parts, form, oracle_n, power))
    for parts in POSITIVITY_PARTITIONS * 2:
        cmds.append(["positivity", "--mu", _mu_text(parts), "--format", "json"])
    for _ in range(4):
        for n in EXPAND_DEGREES:
            for basis in EXPAND_BASES:
                cmds.append(expand_argv(n, basis, rng.choice(("text", "json"))))
        for n, N in EIGEN_CASES:
            cmds.append(["eigencheck", "--n", str(n), "--N", str(N), "--format", "json"])
    rng.shuffle(cmds)
    return cmds


def _verify(identity, flag, value) -> list:
    return ["verify", "--identity", identity, flag, str(value), "--format", "json"]


# Fixed commands per workload: (full size, reduced size for the quick check).
# prop7 runs last, so that no command runs on top of the 146 MB heap it
# leaves behind.
_FIXED = {
    "symmetrized": (
        [_verify("thm6", "--n", 4), _verify("thm7", "--n", 4), _verify("appendix", "--n", 4)],
        [_verify("thm6", "--n", 3), _verify("thm7", "--n", 3), _verify("appendix", "--n", 3)],
    ),
    "constants": (
        [
            _verify("prop5", "--max-weight", 9),
            _verify("prop6", "--max-weight", 10),
            _verify("prop8", "--n", 5),
            _verify("prop7", "--n", 5),
        ],
        [
            _verify("prop5", "--max-weight", 6),
            _verify("prop6", "--max-weight", 7),
            _verify("prop8", "--n", 4),
            _verify("prop7", "--n", 4),
        ],
    ),
    "pooled": (
        [
            ["positivity", "--max-weight", "8", "--format", "json"],
            _verify("appendix", "--n", 4),
            _verify("prop5", "--max-weight", 9),
        ],
        [
            ["positivity", "--max-weight", "5", "--format", "json"],
            _verify("appendix", "--n", 3),
            _verify("prop5", "--max-weight", 6),
        ],
    ),
}


# Passes a run makes at least, even when they outlast --seconds: the median
# of a command's latency needs a few executions.  One pass of ``constants``
# outlasts a run and its prop7 dominates it, so it makes one.
MIN_PASSES = {"queries": 2, "symmetrized": 3, "constants": 1, "pooled": 2}


def generate(workload: str, seed: int, small: bool = False) -> list:
    """The argv lists of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "queries":
        cmds = _queries(random.Random(f"{workload}/{seed}"))
        return cmds[:QUERIES_SMALL] if small else cmds
    # The same order for every seed: peak RSS depends on it.
    return [list(argv) for argv in _FIXED[workload][1 if small else 0]]


# -- the correctness gate ------------------------------------------------------


def digest(argv, stdout: str) -> str:
    """The golden digest of one command: a hash of its argv and its stdout."""
    return hashlib.sha256("\0".join([*argv, stdout]).encode()).hexdigest()[:12]


def load_golden(path=None) -> frozenset:
    with open(path or GOLDEN_PATH, encoding="utf-8") as fh:
        return frozenset(json.load(fh)["digests"])


def gate(argv, exit_code, stdout: str, golden: frozenset) -> bool:
    """True iff one command's outcome is correct.

    A non-zero exit fails.  ``specialize`` and ``expand`` output must match
    the digest recorded from the seed commit byte for byte.  Every
    ``verify``/``positivity``/``eigencheck`` JSON report must list no
    failures and at least one checked instance: the identities are theorems,
    so the known answer is that they hold."""
    if exit_code != 0:
        return False
    if argv[0] in ("specialize", "expand"):
        return digest(argv, stdout) in golden
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    return report.get("failures") == [] and report.get("instances_checked", 0) > 0
