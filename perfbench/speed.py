"""Timings corrected for the speed of a shared machine.

On a machine shared with other tenants the same Python code runs up to a
third slower for tens of seconds at a time, so raw wall times of identical
work drift between runs by more than any useful regression bound.  While
it is active, SpeedSampler runs a fixed pure-Python reference loop from a
SIGALRM handler every PERIOD_S seconds.  An interval's wall time, minus
the time spent in the handler, is scaled by REFERENCE_S divided by the
median loop time sampled during that interval: the result is the time the
work would have taken with the loop at its reference speed.  Work that
gets slower makes the corrected time grow just as the raw time does,
because the loop does not change with the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
LOOP_N = 20_000
# The loop's time on an unloaded core of the machine that took the
# baseline (a 2-CPU Xeon at 2.1 GHz, Python 3.11): roughly the fastest
# tenth of the samples there.
REFERENCE_S = 0.00116
# an interval shorter than a few periods borrows the most recent samples
MIN_SAMPLES = 5


def reference_loop() -> None:
    s = 0
    for i in range(LOOP_N):
        s += i * i


def loop_times(count: int) -> list[float]:
    """Times of `count` runs of the reference loop, one after another."""
    out = []
    for _ in range(count):
        t0 = perf_counter()
        reference_loop()
        out.append(perf_counter() - t0)
    return out


def corrected(raw: float, loops: list[float]) -> float:
    """raw seconds at the reference speed, given loop times taken alongside."""
    return raw * REFERENCE_S / statistics.median(loops)


class SpeedSampler:
    """Context manager sampling the reference loop on a timer signal."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, t0: float, t1: float) -> tuple[float, float]:
        """(corrected seconds, raw seconds) of the interval [t0, t1].

        The raw time excludes the sampler's own handler time inside the
        interval.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        raw = (t1 - t0) - sum(self.durations[lo:hi])
        window = self.durations[min(lo, max(hi - MIN_SAMPLES, 0)) : hi]
        if not window:
            return raw, raw
        return corrected(raw, window), raw
