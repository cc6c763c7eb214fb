"""Command-line entry point.

Subcommands: specialize, verify, expand, positivity, eigencheck, selftest.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
cap exceeded, 141 (128 + SIGPIPE) stdout closed by its reader.  No flag
lifts a cap.  Set QMONO_THREADS to a positive integer to let sweep commands
dispatch independent instances to a worker pool, no larger than the CPUs
this process may run on.  Sweeps list their instances smallest first; the
pool deals them last-listed first, round robin, into a few chunks per
worker, and a verify family whose tasks share memoized values sends each
group of them to one worker: appendix groups by the side of the three-way
identity, prop5 by partition length and prop6 as a whole, and each group's
checks share one rearrangement-peel memo that lives for that group only.
Output order is by instance descriptor, never by completion time.  The
argument parser is built once per process and reused by every ``execute``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import acceptance
from .algebra import Polynomial, fraction_text
from .errors import ComparatorError, QmonoError, ResourceLimitError, UsageError
from .macdonald import BASES, eigencheck, row_expansion_table
from .partitions import Partition, partitions_up_to
from .positivity import positivity_report
from .specialize import UNIVERSE_ABQ, monomial_spec, oracle_direct, oracle_powersum

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# The largest and default positivity --max-weight, checked before (1^w) is
# built: P of (1^9) has degree 1,793, over the P cap of 1,600.
POSITIVITY_SWEEP_CAP = 8

# The basis names --basis takes; perfbench/record_golden.py looks bases up here.
_CLI_BASES = {basis: basis for basis in BASES}


def _report_json(report: acceptance.Report) -> dict:
    """The keys every command's JSON output shares."""
    return {
        "command": report.name,
        "instances_checked": report.instances,
        "failures": [
            {"instance": label, "expected": "identity holds", "actual": "it does not"}
            for label in report.failures
        ],
        "elapsed_seconds": round(report.elapsed, 3),
    }


def dumps(obj) -> str:
    """The one JSON serialization used everywhere (stable key order)."""
    return json.dumps(obj, sort_keys=True)


def thread_count() -> int:
    raw = os.environ.get("QMONO_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"QMONO_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"QMONO_THREADS must be a positive integer, got {raw!r}")
    return n


def _cpu_budget() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunk(fn, chunk: list) -> list:
    return [(index, fn(item)) for index, item in chunk]


def _parallel_map(fn, items: list) -> list:
    """``[fn(item) for item in items]``, on a process pool when
    ``QMONO_THREADS`` asks for one; the pool is no larger than the thread
    count, the item count or ``_cpu_budget()``.

    Every sweep lists its instances smallest first, so the pool deals them
    last-listed first, round robin, into ``4 * workers`` chunks: the
    largest instances start first, and each message still carries several
    of many tiny ones."""
    threads = thread_count()
    items = list(items)
    workers = min(threads, len(items), _cpu_budget())
    if workers < 2:
        return [fn(item) for item in items]
    import multiprocessing

    dealt = list(enumerate(items))[::-1]
    stride = min(4 * workers, len(items))
    chunks = [dealt[k::stride] for k in range(stride)]
    results = [None] * len(items)
    with multiprocessing.Pool(workers) as pool:
        for done in pool.imap_unordered(functools.partial(_run_chunk, fn), chunks):
            for index, value in done:
                results[index] = value
    return results


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition(())
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse partition {text!r}; expected e.g. 2,1")
    try:
        return Partition(parts)
    except UsageError:
        raise UsageError(f"{text!r} is not weakly decreasing positive")


def parse_substitutions(text: str) -> dict:
    """Parse bindings like a=1,b=q^4 into polynomial values over {a,b,q}."""
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError(f"bad substitution {piece!r}; expected var=value")
        name, value = piece.split("=", 1)
        name = name.strip()
        value = value.strip()
        if name not in UNIVERSE_ABQ:
            raise UsageError(f"unknown substitution variable {name!r}")
        if name in out:
            raise UsageError(f"substitution variable {name!r} is bound twice")
        try:
            out[name] = Polynomial.constant(UNIVERSE_ABQ, int(value))
            continue
        except ValueError:
            pass
        base, caret, power = value.partition("^")
        if base not in UNIVERSE_ABQ:
            raise UsageError(f"cannot parse substitution value {value!r}")
        exponent = 1
        if caret:
            try:
                exponent = int(power)
            except ValueError:
                raise UsageError(f"cannot parse exponent in {value!r}")
        out[name] = Polynomial.variable(UNIVERSE_ABQ, base, exponent)
    return out


# -- specialize --------------------------------------------------------------


def cmd_specialize(args) -> acceptance.Report:
    report = acceptance.Report("specialize")
    mu = parse_partition(args.mu)
    if args.oracle_N is not None and args.form != "oracle-direct":
        raise UsageError(f"--oracle-N does not apply to {args.form}")
    bindings = parse_substitutions(args.subst) if args.subst is not None else None
    if args.form == "oracle-powersum":
        result = oracle_powersum(mu)
    elif args.form == "oracle-direct":
        if args.oracle_N is None:
            raise UsageError("--form oracle-direct needs --oracle-N")
        result = oracle_direct(mu, args.oracle_N)
    else:
        result = monomial_spec(mu, args.form)
    value = result.value
    if bindings:
        value = value.substitute(bindings)
    strings = value.to_json()
    print(fraction_text(strings))
    print(dumps({"partition": mu.to_json(), **strings}))
    report.instances = 1
    return report.stop()


# -- verify ------------------------------------------------------------------

# The size of a verify run when its family's size flag is omitted.
_VERIFY_SIZE_DEFAULTS = {"n": 4, "max_weight": 9}


def cmd_verify(args) -> acceptance.Report:
    report = acceptance.Report("verify")
    family = acceptance.VERIFY_FAMILIES[args.identity]
    unread = "max_weight" if family.size_flag == "n" else "n"
    if getattr(args, unread) is not None:
        raise UsageError(f"--{unread.replace('_', '-')} does not apply to {args.identity}")
    size = getattr(args, family.size_flag)
    if size is None:
        size = _VERIFY_SIZE_DEFAULTS[family.size_flag]
    if size > family.cap:
        flag = family.size_flag.replace("_", "-")
        raise ResourceLimitError(f"{args.identity} --{flag} {size} exceeds cap {family.cap}")
    tasks = family.instances(size)
    if not tasks:
        raise UsageError(f"{args.identity} has no instance up to size {size}")
    acceptance.comparator_control()
    outcome = family.verdicts(tasks, _parallel_map)
    results = [{"instance": family.label(t), "ok": outcome[t]} for t in tasks]
    for res in results:
        report.check(res["ok"], res["instance"])
    report.stop()
    if args.format == "json":
        print(dumps({"identity": args.identity, "results": results, **_report_json(report)}))
    else:
        for res in results:
            print(f"{'ok' if res['ok'] else 'FAIL'}  {res['instance']}")
        print(f"verify {args.identity}: {report.summary()}")
    return report


# -- expand ------------------------------------------------------------------


def cmd_expand(args) -> acceptance.Report:
    report = acceptance.Report("expand")
    table = row_expansion_table(args.n, args.basis)
    report.instances = len(table.entries)
    report.stop()
    if args.format == "json":
        doc = {
            "n": args.n,
            "basis": args.basis,
            "entries": [
                {"mu": mu.to_json(), "coefficient": coeff.to_json()}
                for mu, coeff in table.entries
            ],
        }
        print(dumps(doc))
    else:
        for mu, coeff in table.entries:
            print(f"{mu}  {coeff.text()}")
    return report


# -- positivity --------------------------------------------------------------


def _positivity_instance(mu: Partition):
    rep = positivity_report(mu)
    return {
        "mu": mu.to_json(),
        "P": rep.P.text(),
        "H": rep.H.text(),
        "Hbar": rep.Hbar.text() if rep.Hbar is not None else None,
        "all_coefficients_nonnegative_integers": rep.all_coefficients_nonnegative_integers,
        "identity_holds": rep.identity_holds,
        "ok": rep.passed(),
    }


def cmd_positivity(args) -> acceptance.Report:
    report = acceptance.Report("positivity")
    if args.mu is not None:
        if args.max_weight is not None:
            raise UsageError("--max-weight does not apply with --mu")
        partitions = [parse_partition(args.mu)]
    else:
        max_weight = POSITIVITY_SWEEP_CAP if args.max_weight is None else args.max_weight
        if max_weight > POSITIVITY_SWEEP_CAP:
            raise ResourceLimitError(
                f"weight {max_weight} exceeds positivity sweep cap {POSITIVITY_SWEEP_CAP}"
            )
        partitions = partitions_up_to(max_weight)
        if not partitions:
            raise UsageError(f"positivity has no partition up to weight {max_weight}")
    results = _parallel_map(_positivity_instance, partitions)
    for res in results:
        report.check(res["ok"], f"mu={res['mu']}")
    report.stop()
    if args.format == "json":
        print(dumps({"results": results, **_report_json(report)}))
    else:
        for res in results:
            status = "ok" if res["ok"] else "FAIL"
            print(f"{status}  mu={res['mu']}  H = {res['H']}")
        print(f"positivity: {report.summary()}")
    return report


# -- eigencheck --------------------------------------------------------------


def cmd_eigencheck(args) -> acceptance.Report:
    report = acceptance.Report("eigencheck")
    ok = eigencheck(args.n, args.N)
    report.check(ok, f"n={args.n} N={args.N}")
    report.stop()
    if args.format == "json":
        print(dumps({"n": args.n, "N": args.N, "ok": ok, **_report_json(report)}))
    else:
        print(f"{'ok' if ok else 'FAIL'}  eigen-equation n={args.n} N={args.N}")
    return report


# -- selftest ----------------------------------------------------------------


def cmd_selftest(args) -> acceptance.Report:
    report = acceptance.Report("selftest")
    acceptance.comparator_control()
    results = []
    for criterion in acceptance.ALL_CRITERIA:
        res = criterion()
        results.append(res)
        if args.format != "json":
            print(res.line(), flush=True)
        report.instances += res.instances
        report.failures += [f"criterion {res.number}: {label}" for label in res.failures]
    report.stop()
    if args.format == "json":
        print(dumps({"criteria": [r.to_json() for r in results], **_report_json(report)}))
    else:
        print(f"selftest {'PASS' if report.passed else 'FAIL'}: {report.summary()}")
    return report


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmono",
        description=(
            "Exact verification engine for q-specializations of monomial "
            "symmetric functions and the row Macdonald polynomial."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("specialize", help="closed forms on the (a-b)/(1-q) alphabet")
    p.add_argument("--mu", required=True, help="partition, e.g. 2,1")
    p.add_argument(
        "--form",
        default="theorem1",
        choices=["theorem1", "theorem3", "oracle-powersum", "oracle-direct"],
    )
    p.add_argument("--oracle-N", type=int, default=None, help="alphabet size for oracle-direct")
    p.add_argument("--subst", default=None, help="bindings, e.g. a=1,b=q^4")
    p.set_defaults(fn=cmd_specialize)

    p = sub.add_parser("verify", help="verify a named identity family")
    p.add_argument(
        "--identity",
        required=True,
        choices=sorted(acceptance.VERIFY_FAMILIES),
    )
    sizes = _VERIFY_SIZE_DEFAULTS
    p.add_argument("--n", type=int, help=f"largest alphabet/sum size (default {sizes['n']})")
    p.add_argument(
        "--max-weight", type=int, help=f"partition sweep bound (default {sizes['max_weight']})"
    )
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("expand", help="basis expansions of the row polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", required=True, choices=sorted(BASES))
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("positivity", help="positivity polynomial reports")
    p.add_argument(
        "--max-weight", type=int, help=f"partition sweep bound (default {POSITIVITY_SWEEP_CAP})"
    )
    p.add_argument("--mu", default=None, help="single partition instead of a sweep")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_positivity)

    p = sub.add_parser("eigencheck", help="difference-operator eigen-equation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_eigencheck)

    p = sub.add_parser("selftest", help="run the full acceptance suite at default caps")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_selftest)

    return parser


def execute(argv) -> acceptance.Report:
    """Parse argv, run the named command, print its output, and return its
    ``acceptance.Report``.  Raises QmonoError subclasses for usage and resource
    problems; argparse itself exits with code 2 on unknown flags."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


def main(argv=None) -> int:
    try:
        report = execute(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``qmono ... | head``).  Point stdout at
        # the null device so the flush at interpreter exit does not fail
        # again, and exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ComparatorError as exc:
        print(f"comparator control failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except QmonoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
