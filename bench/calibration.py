"""Host-speed calibration: time sections of work at the reference speed.

The shared 2-core hosts this benchmark runs on change speed by 10-30%
over seconds to minutes, as other tenants come and go. So while a
section of work runs, a timer signal interrupts it every INTERVAL_S
seconds to time one small, fixed unit of pure-Python work (`calibrate`).
The section's own seconds are then scaled by the reference host's unit
time over the mean unit time measured during the section, so a slow
minute of the machine does not read as a slow commit. Sampling inside
the section, not beside it, follows the machine's speed at the moments
the section actually ran. The unit touches no package code: a change to
the program cannot move it.

The unit mixes what the engine spends its time on (small dicts and
sets, tuples, slotted objects, sorting with a key, float math) and keeps
its data small enough to stay in cache, as the engine's does.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

INTERVAL_S = 0.05
UNIT_ROUNDS = 3


class _Item:
    __slots__ = ("index", "key")

    def __init__(self, index: int, key: int) -> None:
        self.index = index
        self.key = key


def _work(rounds: int) -> float:
    acc = 0.0
    for r in range(rounds):
        counts: dict[int, int] = {}
        live: set[tuple[int, int]] = set()
        for i in range(300):
            key = (i * 7919 + r) % 211
            counts[key] = counts.get(key, 0) + 1
            item = _Item(i, key)
            if item.key & 1:
                live.add((item.key, item.index % 17))
            else:
                live.discard((item.key - 1, item.index % 17))
            acc += math.exp(-(key % 50) / 10.0)
        ranked = sorted(live, key=lambda t: (t[1], -t[0]))
        acc += sum(b for _, b in ranked[:50]) + len(counts)
        acc += len(frozenset(counts) & {x for x in range(0, 211, 3)})
    return acc


def calibrate() -> float:
    """Wall seconds one unit of the fixed work takes on the host right now.

    A warm-up round first brings the unit's code and data back into the
    cache, so that the unit does not pay for what the interrupted section
    evicted: otherwise a change to the program's memory use would move it.
    """
    _work(1)
    start = time.perf_counter()
    _work(UNIT_ROUNDS)
    return time.perf_counter() - start


@dataclass
class Timing:
    wall_s: float = 0.0  # the section's own wall seconds, samples excluded
    scaled_s: float = 0.0  # the same, at the reference host's speed


class SpeedGauge:
    """Times sections of work in seconds at the reference host's speed."""

    def __init__(self, reference_s: float) -> None:
        self.reference_s = reference_s  # the unit's median time on that host
        self.units: list[float] = []

    @contextmanager
    def section(self) -> Iterator[Timing]:
        """Time the block; the Timing is filled in when the block ends.

        Main thread only, since signal handlers run there.
        """
        samples: list[float] = []
        spent = [0.0]  # wall seconds inside the handler, warm-ups included

        def sample(signum, frame) -> None:
            start = time.perf_counter()
            samples.append(calibrate())
            spent[0] += time.perf_counter() - start

        timing = Timing()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            total = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            timing.wall_s = total - spent[0]
            # one unit right after, so a section shorter than INTERVAL_S has one
            samples.append(calibrate())
            self.units.extend(samples)
            timing.scaled_s = (
                timing.wall_s * self.reference_s / statistics.fmean(samples)
            )

    @property
    def slowdown(self) -> float:
        """Median unit time over the reference: above 1 is slower."""
        return statistics.median(self.units) / self.reference_s
