"""The qmono benchmark.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 15 --trace 0

Rerun everything (each workload untraced, then traced) and print every
metric by name with its unit, ``failed_ratio`` included:

    python3 perfbench/run.py --all --seed 1 --seconds 15

Each pass of a workload runs in a fresh process (``worker.py``), one at a
time: a fresh process per pass keeps ``ru_maxrss`` and in-process state
from carrying over, and the pool of ``pooled`` is the only place more than
one process works at once.  A run makes passes until ``--seconds`` have
passed and at least the workload's ``workloads.MIN_PASSES`` are done, and
starts ``SETUP_LAUNCHES`` set-up-only processes before each pass.

Command latencies are adjusted to a nominal host speed (see
``speedometer.py``), and a command's latency is the median over every time
the run executed it.  ``setup_s`` is the plain median of the set-up-only
samples: the start-up of a fresh process does not follow the speed of the
reference kernel, and adjusting it made it spread more.

With ``--trace 1`` the run alternates an untraced and a traced pass, and
reports the per-layer metrics of the traced passes (see ``tracer.py``) and
``trace.overhead``, the traced ``wall_s`` over the untraced one, both in
plain wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A command counts
as failed when it fails the gate in ``workloads.gate``;
``failed_ratio`` = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import MIN_PASSES, WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 6  # set-up-only processes before each pass
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cmd_p50_ms": "ms",
    "cmd_p95_ms": "ms",
}
PER_LAYER = {
    "algebra.mul.calls": "count",
    "algebra.mul.term_pairs": "count",
    "algebra.mul.self_s": "s",
    "algebra.frac_sum.calls": "count",
    "algebra.frac_sum.self_s": "s",
    "algebra.frac_sum.max_num_terms": "count",
    "algebra.frac_sum.max_den_factors": "count",
    "algebra.frac_eq.calls": "count",
    "algebra.frac_eq.self_s": "s",
    "algebra.add.calls": "count",
    "algebra.add.self_s": "s",
    "algebra.substitute.calls": "count",
    "algebra.substitute.self_s": "s",
    "algebra.frac_init.calls": "count",
    "algebra.frac_init.self_s": "s",
    "algebra.text.calls": "count",
    "algebra.text.self_s": "s",
    "partitions.enum.calls": "count",
    "partitions.enum.items": "count",
    "partitions.enum.self_s": "s",
    "specialize.self_s": "s",
    "specialize.monomial_spec.calls": "count",
    "specialize.monomial_spec.distinct": "count",
    "identities.self_s": "s",
    "identities.symmetrized_side.calls": "count",
    "identities.symmetrized_side.distinct": "count",
    "positivity.self_s": "s",
    "macdonald.self_s": "s",
    "cli.execute.self_s": "s",
    "cli.pool.wall_s": "s",
    "cli.pool.tasks": "count",
    "cli.pool.busy_share": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pool_size() -> int:
    """QMONO_THREADS for ``pooled``: the CPUs this process may run on."""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def commit() -> str:
    """The checked-out commit, read from .git without starting git; a
    checkout without .git has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def source_digest() -> str:
    """sha256 over the package sources, naming the program measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmono").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _env(workload: str) -> dict:
    env = dict(os.environ)
    # Polynomials hash their variable names, and sets of them (the factors
    # of a FactoredFraction) iterate in hash order; a fixed hash seed makes
    # every pass do its work in the same order.
    env["PYTHONHASHSEED"] = "0"
    env.pop("QMONO_THREADS", None)
    if workload == "pooled":
        env["QMONO_THREADS"] = str(pool_size())
    return env


def build():
    """Compile the sources to bytecode once, so no timed process compiles."""
    if not (ROOT / "src" / "qmono" / "cli.py").is_file():
        raise BenchError(f"no qmono sources under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "qmono"), str(HERE)],
        env=_env(""),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"compiling the sources failed:\n{proc.stdout}{proc.stderr}")


def launch(workload: str, seed: int, *flags: str) -> dict:
    """Start one worker process, wait for it, and return its JSON line."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        argv + ["--launched", repr(launched), *flags],
        cwd=ROOT,
        env=_env(workload),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def _percentile_ms(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1000


def median_latencies(passes, key="seconds") -> list:
    """Per distinct command, the median of its latency over every time the
    run executed it."""
    times = {}
    for p in passes:
        for c in p["commands"]:
            times.setdefault(tuple(c["argv"]), []).append(c[key])
    return [statistics.median(t) for t in times.values()]


def run(workload, seed, seconds, trace, *, small=False, golden=None,
        setup_launches=SETUP_LAUNCHES, min_passes=None) -> dict:
    """One benchmark run; returns the result object plus a ``notes`` list
    of lines for the reader."""
    flags = ["--small"] if small else []
    if golden is not None:
        flags += ["--golden", str(golden)]
    if min_passes is None:
        min_passes = MIN_PASSES[workload]
    setups, passes, traced = [], [], []
    start = time.monotonic()
    while True:
        if not trace:
            for _ in range(setup_launches):
                setups.append(launch(workload, seed, "--setup-only", *flags)["setup_s"])
        passes.append(launch(workload, seed, *flags))
        if trace:
            traced.append(launch(workload, seed, "--trace", *flags))
        enough = trace or len(passes) >= min_passes
        if enough and time.monotonic() - start >= seconds:
            break

    commands = [c for p in passes + traced for c in p["commands"]]
    failed = [c for c in commands if not c["ok"]]
    notes = [
        f"failed_ratio {len(failed)}/{len(commands)} = {len(failed) / len(commands)} ratio",
    ]
    notes += [f"failed: {' '.join(c['argv'])} (exit {c['exit_code']}) {c['stderr'].strip()}"
              for c in failed[:5]]
    latencies = median_latencies(passes)
    if trace:
        layers = [p["layers"] for p in traced]
        values = {name: (statistics.median_low if unit == "count" else statistics.median)(
                      [layer[name] for layer in layers])
                  for name, unit in PER_LAYER.items() if name != "trace.overhead"}
        values["trace.overhead"] = (sum(median_latencies(traced, "raw_seconds"))
                                    / sum(median_latencies(passes, "raw_seconds")))
        units = PER_LAYER
        notes.append(f"traced passes {len(traced)}, untraced passes {len(passes)}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(latencies),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "cmd_p50_ms": _percentile_ms(latencies, 50),
            "cmd_p95_ms": _percentile_ms(latencies, 95),
        }
        units = END_TO_END
        beyond = sum(1 for s in latencies if s * 1000 > values["cmd_p95_ms"])
        runs = sum(len(p["commands"]) for p in passes)
        raw = sum(median_latencies(passes, "raw_seconds"))
        notes.append(f"passes {len(passes)}, setup samples {len(setups)}, command latency "
                     f"samples {len(latencies)} ({beyond} beyond p95), each the median of "
                     f"{runs / len(latencies):.3g} runs on average")
        notes.append(f"unadjusted wall time {raw:.4g} s, {raw / values['wall_s']:.3g} times the adjusted "
                     f"one")
    return {
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "notes": notes,
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each run in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace} failed:\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            doc = json.loads(proc.stdout.splitlines()[-1])
            ratio = doc["failed"] / doc["attempted"]
            print(f"{workload:12} trace={trace} {'failed_ratio':36} {ratio:>14.6g} ratio"
                  f"  ({doc['failed']}/{doc['attempted']})")
            for name, metric in doc["metrics"].items():
                value = metric["value"]
                text = f"{value:>14,}" if metric["unit"] == "count" else f"{value:>14.6g}"
                print(f"{workload:12} trace={trace} {name:36} {text} {metric['unit']}")
            if not doc["correct"]:
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="qmono benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    args = parser.parse_args()
    try:
        build()
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required without --all")
        print(f"# python {sys.version.split()[0]}, cpu_count {os.cpu_count()}, "
              f"pool {pool_size()}, commit {commit()}, src {source_digest()}, "
              f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("notes"):
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
