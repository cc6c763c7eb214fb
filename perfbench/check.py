"""Quick check of the benchmark itself, at reduced sizes (under a minute):

    python3 perfbench/check.py

It checks that

1. every metric named in BENCHMARK.json is emitted with its unit, by an
   untraced and a traced run of every workload;
2. every count of the trace (``algebra.mul.term_pairs``,
   ``algebra.frac_sum.max_num_terms``, ``identities.symmetrized_side.calls``
   and the rest) repeats exactly between two traced runs;
3. a non-ok verdict counts toward ``failed_ratio``: a corrupted golden
   digest fails its command in a real run, and the gate fails a report with
   failures, a report of zero instances and a non-zero exit;
4. after ``Tracer.install`` no ``qmono`` module still holds an unwrapped
   traced function, and a call through an imported name is seen;
5. the speedometer scales each stretch of time by the speed around it,
   leaves its own samples out, and does not move the garbage collector's
   counts.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1

problems = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def small_run(workload, trace, **kw):
    return run.run(workload, SEED, 0, trace, small=True, setup_launches=2, min_passes=1, **kw)


def check_metrics_and_counts(spec):
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = small_run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={int(trace)}: every {key} metric with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={int(trace)}: passes the correctness gate")
            if trace:
                again = small_run(workload, True)
                counts = [n for n, m in result["metrics"].items() if m["unit"] == "count"]
                same = all(result["metrics"][n] == again["metrics"][n] for n in counts)
                expect(same, f"{workload}: all {len(counts)} counts repeat exactly, "
                             f"term_pairs and max_num_terms included")


def cli_stdout(argv):
    from qmono import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_failures_counted():
    golden = workloads.load_golden()
    commands = workloads.generate("queries", SEED, small=True)
    victim = next(argv for argv in commands if argv[0] in ("specialize", "expand"))
    code, out = cli_stdout(victim)
    good = workloads.digest(victim, out)
    expect(code == 0 and good in golden, "the seed output of a drawn command is golden")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        corrupted = Path(tmp) / "golden.json"
        digests = sorted(golden - {good}) + ["0" * 12]
        corrupted.write_text(json.dumps({"digests": digests}))
        result = small_run("queries", False, golden=corrupted)
    expected = commands.count(victim)
    expect(result["failed"] == expected and not result["correct"],
           f"a corrupted digest fails its command: failed {result['failed']}/{result['attempted']}")

    bad_reports = {
        "a report with a failure": (0, '{"failures": [{"instance": "n=1"}], "instances_checked": 1}'),
        "a report of zero instances": (0, '{"failures": [], "instances_checked": 0}'),
        "a non-zero exit": (1, '{"failures": [], "instances_checked": 1}'),
    }
    argv = ["verify", "--identity", "thm6", "--n", "1", "--format", "json"]
    for what, (code, out) in bad_reports.items():
        expect(not workloads.gate(argv, code, out, golden), f"the gate fails {what}")
    code, out = cli_stdout(argv)
    expect(workloads.gate(argv, code, out, golden), "the gate passes a real verify report")
    vacuous = ["verify", "--identity", "thm6", "--n", "0", "--format", "json"]
    code, out = cli_stdout(vacuous)
    expect(not workloads.gate(vacuous, code, out, golden),
           "the gate fails the vacuous verify --n 0 report")


def check_tracer_coverage():
    from qmono import algebra, cli
    from tracer import Tracer

    tracer = Tracer().install()
    expect(tracer.unwrapped_bindings() == [], "no qmono module keeps an unwrapped traced function")
    expect(algebra.Polynomial.__dict__["__rmul__"] is not algebra.Polynomial.__dict__["__mul__"]
           and isinstance(algebra.FactoredFraction.__dict__["sum"], staticmethod),
           "__rmul__ is wrapped on its own and FactoredFraction.sum stays a staticmethod")
    code, _ = cli_stdout(["verify", "--identity", "appendix", "--n", "2", "--format", "json"])
    calls = tracer.metrics()["identities.symmetrized_side.calls"]
    # appendix_step calls symmetrized_side twice per instance; n=2 has 4 instances.
    expect(code == 0 and calls == 8, f"calls through imported names are seen ({calls} of 8)")
    expect(hasattr(cli.execute, "__wrapped__"), "cli.execute is wrapped")


def check_speedometer():
    import gc
    from array import array

    import speedometer

    # Samples at t = 0 to 4 s, each taking 0.1 s; the host runs at the
    # nominal speed until t = 1 and at half of it from t = 2.
    nominal = speedometer.NOMINAL_S
    speed = speedometer.Speedometer()
    speed.starts = array("d", [0.0, 1.0, 2.0, 3.0, 4.0])
    speed.ends = array("d", [0.1, 1.1, 2.1, 3.1, 4.1])
    speed.speeds = array("d", [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal])
    # Smoothed over five: 1, 1.5, 2, 2 and 2 times the nominal kernel time.
    expect(abs(speed.raw(0.5, 2.5) - 1.8) < 1e-9, "raw time leaves the samples out")
    want = 0.5 * 2 / 2.5 + 0.9 * 2 / 3.5 + 0.4 * 2 / 4
    expect(abs(speed.adjusted(0.5, 2.5) - want) < 1e-9,
           "each stretch is scaled by the mean smoothed speed at its two ends")
    before = gc.get_count()
    speedometer.kernel()
    expect(gc.get_count() == before, "the reference kernel leaves the collector's counts alone")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.build()
    sys.path.insert(0, str(ROOT / "src"))
    check_metrics_and_counts(spec)
    check_failures_counted()
    check_tracer_coverage()
    check_speedometer()
    print("all checks hold" if not problems else f"{len(problems)} checks failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
