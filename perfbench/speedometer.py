"""Host-speed adjustment of measured times.

On a shared host the same pure-Python loop runs up to twice as fast in one
second as in the next, in phases from under a second to many minutes, and
CPU time rises with wall time (no steal is reported).  Raw wall times of one
program version therefore spread by a third between runs.  The benchmark
reports every time *adjusted to a nominal host speed* instead:

    adjusted = measured * NOMINAL_S / (time of the reference kernel nearby)

The reference kernel (``kernel``) is fixed code of the benchmark's own that
does what qmono's hot loop does, a sparse product of dict polynomials, and
imports nothing from ``qmono``.  A change to the program moves the measured
time and leaves the kernel alone, so it moves the adjusted time by the same
factor; a change of host speed moves both.

While a pass runs, ``Speedometer`` takes a speed sample every
``INTERVAL_S`` of wall time from a SIGALRM handler, in the same process and
between two bytecodes of whatever runs, so the speed is sampled inside long
commands too.  A sample is the fastest of ``REPEATS`` short kernel runs, so
that a run delayed by the scheduler (a pool worker holding the CPU when the
sample starts) does not count.  ``adjusted(start, end)`` removes the
samples' own time from the interval and scales each stretch between two
samples by the mean of the samples at its two ends.  Each sample is first
replaced by the median of its neighbourhood (``SMOOTHING``), so that one
sample slowed by something other than the host, such as a pool worker being
forked, does not skew the stretches around it.
"""

from __future__ import annotations

import array
import bisect
import os
import signal
import statistics
import time

INTERVAL_S = 0.1
REPEATS = 5  # kernel runs per sample; the sample keeps the fastest
SMOOTHING = 2  # a sample's speed is the median of it and this many on each side
# The kernel's time at the nominal speed.  It fixes the unit of adjusted
# times (seconds on a host where the kernel takes this long); it is a
# constant, so it cancels out of every comparison between two runs.
NOMINAL_S = 0.002

# Two polynomials in four variables, each exponent vector packed into one
# int, eight bits per variable.  Ints and a dict of ints are not tracked by
# the garbage collector, so a sample does not move the program's collections
# (or, through them, its peak RSS).
_A = {i | j << 8 | k << 16 | m << 24: 7 * i + 3 * j + k + m + 1
      for i in range(5) for j in range(4) for k in range(4) for m in range(3)}
_B = {i | j << 8 | k << 16 | m << 24: i + 5 * j + 2 * k + 11 * m - 13
      for i in range(3) for j in range(2) for k in range(2) for m in range(2)}


def kernel() -> float:
    """Run the reference kernel once and return its time in seconds."""
    start = time.perf_counter()
    out = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return time.perf_counter() - start


class Speedometer:
    """Samples the host speed while it runs; see the module docstring."""

    def __init__(self):
        # Raw doubles, not lists of floats: a float kept alive from a sample
        # would pin the memory pool it sits in and move peak RSS.
        self.starts = array.array("d")  # perf_counter at the start of each sample
        self.ends = array.array("d")
        self.speeds = array.array("d")  # the fastest kernel time of each sample
        self._smooth = None
        self._previous = None
        self._reniced = set()

    def _renice_children(self):
        """Give child processes (the pool workers of ``QMONO_THREADS``) the
        lowest priority, so that a sample preempts them instead of sharing
        a CPU with them.  Nice only orders the processes of this machine
        against each other, and the workers compete only with the sampler
        and with each other."""
        for tid in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{tid}/children") as fh:
                    pids = {int(p) for p in fh.read().split()}
            except OSError:  # the thread has ended
                continue
            for pid in pids - self._reniced:
                try:
                    os.setpriority(os.PRIO_PROCESS, pid, 19)
                except OSError:  # the child has ended
                    pass
                self._reniced.add(pid)

    def _sample(self, *_):
        self._renice_children()
        start = time.perf_counter()
        fastest = min(kernel() for _ in range(REPEATS))
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.speeds.append(fastest)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _ref(self, i: int) -> float:
        if self._smooth is None:
            times = self.speeds
            self._smooth = [statistics.median(times[max(0, j - SMOOTHING):j + SMOOTHING + 1])
                            for j in range(len(times))]
        return self._smooth[i]

    def raw(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` less the samples inside it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.ends[i] - self.starts[i] for i in range(first, last))

    def adjusted(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end``, less the samples inside it,
        at the nominal host speed.  ``start`` and ``end`` must lie between
        the first and the last sample."""
        # A sample runs between two bytecodes, so it lies wholly before,
        # inside or after [start, end].
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if first == 0 or last == len(self.starts):
            raise ValueError("interval not bracketed by speed samples")
        total, at, before = 0.0, start, first - 1
        for i in range(first, last):
            total += (self.starts[i] - at) * 2 / (self._ref(before) + self._ref(i))
            at, before = self.ends[i], i
        total += (end - at) * 2 / (self._ref(before) + self._ref(last))
        return total * NOMINAL_S

