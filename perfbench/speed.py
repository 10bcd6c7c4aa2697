"""Scale measured times to one reference speed of the CPU.

The machine the bounds were set on is a 2-vCPU guest whose vCPUs run at
speeds up to 2.7x apart, switching every fraction of a second to every few
seconds and drifting over minutes; CPU time tracks wall time, so no clock of
the process can tell the phases apart.  A speed probe -- a fixed pure-Python
loop that makes a small object and calls a method on it ``PROBE_STEPS``
times, 0.17-0.47 ms -- runs between the benchmark's operations and between
the nodes of a beam DP solve, at most every ``INTERVAL_S``.  A time measured
from ``start`` to ``end`` is scaled by ``REFERENCE_S`` over the median of the
probes taken within ``WINDOW_S`` of that interval, so every figure reads as
seconds at the speed at which the probe takes ``REFERENCE_S``.  Probes run
outside every timed interval.  The probe does the program's kind of work
(allocation and calls) because a plain integer loop follows the machine's
changes of speed only in part (README.md, "How a run measures").
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from typing import Callable

PROBE_STEPS = 800
# The probe's time at the fastest speed of the 2-vCPU machine the bounds were
# set on (README.md, "How a run measures").
REFERENCE_S = 185e-6
INTERVAL_S = 0.01
WINDOW_S = 0.03


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def plus(self, x: int) -> int:
        return self.value + x


class Speed:
    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.at: list[float] = []  # end of each probe, ascending
        self.took: list[float] = []  # each probe's time
        self.spent = 0.0  # seconds spent probing so far
        self.last = float("-inf")

    def probe(self) -> None:
        clock = self.clock
        start = clock()
        total = 0
        for i in range(PROBE_STEPS):
            total += _Cell(i).plus(i)
        end = clock()
        self.at.append(end)
        self.took.append(end - start)
        self.spent += end - start
        self.last = end

    def tick(self) -> None:
        """Probe if the last probe is at least ``INTERVAL_S`` old."""
        if self.clock() - self.last >= INTERVAL_S:
            self.probe()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``start``..``end``, at the reference speed.

        Callers probe (``tick``) right before and right after what they
        time; should no probe fall within ``WINDOW_S`` of the interval, the
        nearest one on each side counts.
        """
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return seconds * REFERENCE_S / statistics.median(self.took[lo:hi])

    def summary(self) -> dict[str, float]:
        """Probe count and quartiles, for the run's result file."""
        q1, q2, q3 = statistics.quantiles(self.took, n=4)
        return {"probes": len(self.took), "q1_us": q1 * 1e6, "median_us": q2 * 1e6, "q3_us": q3 * 1e6}
