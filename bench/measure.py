"""Reference loop, ref units and summary statistics.

On a virtual machine that shares its CPUs with other tenants, speed
swings by up to 2x within a second, and CPU time moves with wall time,
so the CPU itself slows.  Timings are therefore reported in ref units.
A ref unit is the time of REF_ITERS iterations of a fixed pure-Python
loop, measured around and during each chunk of timed work: once before
it and once after it (the bracketing runs), and every SAMPLE_PERIOD_S
during it from a timer signal.  The in-chunk runs follow speed changes inside a long query,
which the brackets alone miss; their time is subtracted from the query
they interrupt.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REF_ITERS = 25_000
SAMPLE_ITERS = 2_500
SAMPLE_PERIOD_S = 0.02
# A time that must be reported in seconds is its value in ref units times
# this: seconds on a machine where one reference run takes 10 ms.
NOMINAL_REF_S = 0.010

# A 64K-entry table walked by the reference loop, built once; the loop
# itself allocates no GC-tracked objects.  Contention from other tenants
# slows gbdkit's dict-heavy code partly like a pure integer loop and
# partly like a walk over a table larger than the caches, so each step
# does both.  Across ten processes on a shared 2-vCPU virtual machine
# (CPython 3.11), one pass of a workload divided by the reference loop
# spread 6-21% (quartile distance over median), against 12-31% for raw
# seconds.
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1 << 16)}


def _step(a: int, b: int) -> int:
    return (a + b) & 0xFFFF


def ref_loop(iters: int = REF_ITERS) -> float:
    """Seconds for a fixed integer recurrence and walk of _TABLE; touches
    no gbdkit code."""
    table, step = _TABLE, _step
    start = perf_counter()
    x = y = 1
    for i in range(iters):
        x = step(table[x], i)
        y = (y * 1103515245 + 12345) & 0x7FFFFFFF
    return perf_counter() - start


class RefClock:
    """Reference-loop runs around and during chunks of timed work.

    tick() runs a bracketing reference loop; it closes the open chunk and
    opens the next.  While sampling (start() to stop()), a timer signal
    adds short runs to the open chunk, and `paused_s` accumulates the
    time they took, so a caller subtracts it from whatever they interrupted.
    """

    def __init__(self, sample_during: bool = True):
        self.sample_during = sample_during
        self.brackets: list = []     # seconds of every bracketing run
        self.samples = 0             # in-chunk runs taken
        self.paused_s = 0.0
        self._chunk: list = []       # (seconds, iterations) of the open chunk
        self._in_bracket = False

    def tick(self) -> float:
        """Bracketing run; returns the ref unit in seconds of the chunk it closes:
        REF_ITERS times the interquartile mean of the step times of the runs
        around and inside it, so that a spike in one run does not count."""
        self._in_bracket = True
        run = (ref_loop(), REF_ITERS)
        self._in_bracket = False
        self.brackets.append(run[0])
        closed, self._chunk = self._chunk + [run], [run]
        steps = sorted(s / i for s, i in closed)
        cut = len(steps) // 4
        return REF_ITERS * statistics.mean(steps[cut:len(steps) - cut])

    def _sample(self, signum, frame):
        if self._in_bracket:
            return
        start = perf_counter()
        self._chunk.append((ref_loop(SAMPLE_ITERS), SAMPLE_ITERS))
        self.samples += 1
        self.paused_s += perf_counter() - start

    def start(self):
        if self.sample_during:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        if self.sample_during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spread(self) -> float:
        """Interquartile range of the bracketing runs as a share of their median."""
        if len(self.brackets) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.brackets, n=4)
        return (q3 - q1) / statistics.median(self.brackets)


def percentile(values, pct: int) -> float:
    """Linear-interpolation percentile of the samples (pct in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
