"""Host speed, measured beside every timed operation.

The benchmark runs on shared VMs whose speed swings by up to 2x within
minutes as co-tenants come and go.  CPU time swings as much as wall time,
and no statistic over one run removes a swing that lasts minutes.  Every
workload here is single-threaded Python, and a fixed pure-Python loop
(sparse polynomial products with ``Fraction`` coefficients in dicts, like
nilforms' own ring) slows by the same factor as nilforms' warm work does;
import-heavy work slows less, so it is over-corrected.  The benchmark runs
that loop before and after each timed operation and scales the operation's
wall time by ``NOMINAL_S`` over the loop's mean time beside it: the result
reads as seconds on the reference machine at its nominal speed.  The loop
uses only the standard library, so no change to nilforms can move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# One loop's wall time on the reference machine (2-vCPU Xeon VM, Python
# 3.11.7) at its usual speed; scaled seconds equal wall seconds there.
NOMINAL_S = 0.0125

_POLY = tuple(((i, j), Fraction(i + 1, j + 2)) for i in range(6) for j in range(6))


def loop_s() -> float:
    """Wall seconds of one run of the reference loop, with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            out = {}
            for (a, b), c in _POLY:
                for (d, e), f in _POLY:
                    key = (a + d, b + e)
                    out[key] = out.get(key, 0) + c * f
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Scales wall times by the host speed measured just before and after them.

    Each measurement of the host is the mean of ``loops`` runs of the loop;
    longer operations take more, since one 12 ms run says little about the
    host's speed over a whole second.
    """

    def __init__(self, loops: int = 1):
        loop_s()  # warm-up: the first run pays for caches and allocation
        self.loops = []
        self.mark(loops)

    def _measure(self, loops: int) -> float:
        runs = [loop_s() for _ in range(loops)]
        self.loops += runs
        return statistics.fmean(runs)

    def mark(self, loops: int = 1) -> None:
        """Measure the host now, as the measurement before the next timed stretch."""
        self._last = self._measure(loops)

    def scale(self, wall_s: float, loops: int = 1) -> float:
        """``wall_s``, just measured, in reference seconds; measures the host that follows it."""
        before, self._last = self._last, self._measure(loops)
        return wall_s * NOMINAL_S * 2.0 / (before + self._last)

    def speed(self) -> float:
        """Median host speed over the run, as a share of the nominal (above 1 is faster)."""
        return NOMINAL_S / statistics.median(self.loops)
