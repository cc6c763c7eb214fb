"""One fresh benchmark process: run one pass of a workload through
``qmono.cli.main`` in process, as a single closed-loop client, and print
one JSON line with what it measured.

Started by ``run.py``; not meant to be run by hand.  ``--launched`` is the
CLOCK_MONOTONIC reading taken just before this process was started, so
``setup_s`` covers interpreter start, ``import qmono.cli`` and generating
the commands.

An untraced pass runs under a ``speedometer.Speedometer``: each command's
``seconds`` is its latency at the nominal host speed, and ``raw_seconds``
its wall time less the speed samples taken inside it.  A traced pass runs
without one, and both are its plain wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_command(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raw exception escaping the CLI is a failure
            traceback.print_exc()
            code = -1
    end = time.perf_counter()
    return start, end, code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--golden", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from qmono import cli

    if Path(cli.__file__).resolve().parent != SRC / "qmono":
        raise SystemExit(f"qmono imported from {cli.__file__}, not from {SRC}")
    import workloads
    from speedometer import Speedometer

    commands = workloads.generate(args.workload, args.seed, args.small)
    setup_s = _now() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    golden = workloads.load_golden(args.golden)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    if tracer is None:
        with Speedometer() as speed:
            runs = [_run_command(cli.main, argv) for argv in commands]
        timed = [(speed.adjusted(start, end), speed.raw(start, end))
                 for start, end, *_ in runs]
    else:
        runs = [_run_command(cli.main, argv) for argv in commands]
        timed = [(end - start, end - start) for start, end, *_ in runs]
    # Gate after the loop, so checking outputs stays out of the timed region.
    results = [
        {
            "argv": argv,
            "seconds": seconds,
            "raw_seconds": raw_seconds,
            "exit_code": code,
            "ok": workloads.gate(argv, code, out, golden),
            "stderr": err[-500:],
        }
        for argv, (_, _, code, out, err), (seconds, raw_seconds) in zip(commands, runs, timed)
    ]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc = {
        "setup_s": setup_s,
        "peak_rss_mb": (own + children) / 1024,
        "commands": results,
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
