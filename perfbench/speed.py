"""Host-speed calibration for the timings.

The hosts this benchmark runs on are shared, and their speed drifts by up to
40% over seconds to minutes as other tenants load the same cores; the drift
shows in CPU time too, so it cannot be filtered out afterwards.  A probe
therefore times a fixed pure-Python kernel from a SIGALRM handler every
PERIOD seconds while the workload runs.  A request that took ``t`` seconds
while the kernel took ``k`` seconds on average around it is reported as
``t * K_REF / k``: seconds on a host where the kernel takes K_REF.  The
probe's own time (about 1.5%) is subtracted from every request it interrupts.

The kernel mixes an integer loop with Fraction arithmetic, the two kinds of
work the program spends its time in.  On a 2-vCPU host with this drift,
normalising cut the coefficient of variation of repeated ``records
--qmax-log10 40000`` and ``minima --nmax 20`` runs from 8-12% to 2-5%.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD = 0.05
WINDOW = 0.25     # seconds of samples taken on each side of a short request
K_REF = 7e-4      # seconds; about the kernel's time on an idle 2.1 GHz x86 core


def kernel() -> Fraction:
    s = 0
    for i in range(3000):
        s += i * i % 7
    x = Fraction(s, 3)
    for i in range(1, 60):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    return x


class Probe:
    def __init__(self):
        self.times: list[float] = []    # sample start times
        self.costs: list[float] = []    # kernel durations
        self.spent = 0.0                # total time inside the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.costs.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, a: float, b: float) -> float:
        """K_REF over the mean kernel time in [a - WINDOW, b + WINDOW]."""
        lo = bisect.bisect_left(self.times, a - WINDOW)
        hi = bisect.bisect_right(self.times, b + WINDOW)
        costs = self.costs[lo:hi] or self.costs
        return K_REF * len(costs) / sum(costs)
