"""Machine-speed probe that puts every timing on one reference speed.

The shared 2-core hosts this benchmark runs on change speed by up to
1.8x for tens of seconds at a time, because of load from outside the
process; a raw time then says more about the neighbours than about the
program.  So the benchmark times a fixed pure-Python loop (exact
fractions, dicts, small objects: the same kind of work spinid does) next
to every measurement, at least every PROBE_EVERY_S, and scales each
measured time by REFERENCE_S / (the probe time around it).  A reported
time is thus the time at the speed where the probe takes REFERENCE_S,
and it moves one for one with the program's own cost.
"""
from __future__ import annotations

import bisect
import time
from fractions import Fraction

REFERENCE_S = 0.010
PROBE_EVERY_S = 0.1


def _loop() -> Fraction:
    acc = Fraction(0)
    seen: dict[tuple[int, int], Fraction] = {}
    for k in range(1, 3000):
        acc += Fraction(k % 7 + 1, k % 97 + 1)
        seen[(k % 13, k % 5)] = acc
    return acc


def probe() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Timeline:
    """Probe results at points in time; `factor(t0, t1)` scales a time
    measured over [t0, t1] by the probes just before and just after it."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def mark(self, force: bool = False) -> None:
        """Probe now, unless a probe ran within PROBE_EVERY_S and not `force`."""
        if force or not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            took = probe()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def factor(self, t0: float, t1: float) -> float:
        before = max(0, bisect.bisect_right(self.at, t0) - 1)
        after = min(len(self.at) - 1, bisect.bisect_left(self.at, t1))
        return REFERENCE_S / ((self.took[before] + self.took[after]) / 2)
