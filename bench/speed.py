"""Machine-speed probe: rescales measured times to a fixed reference speed.

On a shared host the processor itself runs slower or faster from one minute
to the next (the process's CPU time tracks its wall time, so this is not
time spent descheduled); identical passes of one workload were seen to take
1.8 s and 3.4 s a minute apart.  The probe times a fixed pure-Python kernel
from a timer signal every ``PERIOD`` seconds while the benchmark runs, so
the kernel samples the same moments as the code under test.  A measured
interval is then reported as its duration minus the probe's own time,
divided by the slowdown ``mean(kernel times) / KERNEL_REFERENCE_S``: seconds
at the reference speed.  The kernel uses only the standard library, so no
change to qfalab can change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.1
# Time of one kernel call on the 2-core Xeon host the benchmark was written
# on, when quiet; it fixes the unit of the rescaled times.
KERNEL_REFERENCE_S = 0.003

_M = [[Fraction(i + 2 * j + 1, 3 + i + j) for j in range(4)] for i in range(4)]
_F = [[(i + 2 * j + 1) / (3 + i + j) for j in range(12)] for i in range(12)]


def kernel() -> None:
    """Exact and float matrix-vector products, the mix the workloads run."""
    for _ in range(2):
        v = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        for _ in range(10):
            v = [sum(x * _M[i][j] for i, x in enumerate(v)) for j in range(4)]
        w = [1.0] * 12
        for _ in range(20):
            w = [sum(x * _F[i][j] for i, x in enumerate(w)) / 30.0 for j in range(12)]


class SpeedProbe:
    """Context manager that samples the kernel's time every ``PERIOD``."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.stolen += elapsed

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.stolen, len(self.samples)

    def since(self, mark) -> tuple[float, list[float]]:
        """Time since ``mark`` without the probe's own, and the kernel
        times sampled meanwhile."""
        start, stolen, count = mark
        now = time.perf_counter()
        return now - start - (self.stolen - stolen), self.samples[count:]

    def slowdown(self, samples=None) -> float:
        """Mean kernel time over the reference: above 1 when slower.  With
        no samples of its own an interval takes the whole run's."""
        chosen = samples or self.samples
        return statistics.fmean(chosen) / KERNEL_REFERENCE_S if chosen else 1.0
