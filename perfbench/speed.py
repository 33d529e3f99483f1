"""A fixed Python loop timed between the benchmark's operations.

The benchmark shares its host with other work, which can slow every
instruction it runs for a second or for a whole run. The reference loop
does the kind of work womkit's search does (bit tricks on small ints and
set inserts) and calls no womkit code, so its times follow the machine's
speed and not womkit's. `SpeedProbe.local` gives the loop's time around a
stretch of work, which scales that work's time to a machine of fixed speed.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

LOOP_ITERS = 2000
NEIGHBOURS = 2  # samples taken on each side of a stretch that count for it
clock = time.perf_counter


@dataclass(frozen=True)
class Timed:
    """`seconds` of measured work done between the clock readings `start` and `end`.

    `seconds` can be less than `end - start` when untimed steps ran in between.
    """

    seconds: float
    start: float
    end: float


def timed_since(t0: float) -> Timed:
    t1 = clock()
    return Timed(t1 - t0, t0, t1)


def reference_loop() -> int:
    acc, seen = 0, set()
    for i in range(LOOP_ITERS):
        y = (i * 2654435761) & 0xFFFFF
        while y:
            low = y & -y
            acc ^= low << 3
            y ^= low
        seen.add(acc & 0xFFFF)
    return len(seen)


class SpeedProbe:
    """Times of the reference loop, with the clock reading at which each began."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = clock()
            reference_loop()
            self.starts.append(t0)
            self.samples.append(clock() - t0)

    def sample_every(self, gap: float) -> None:
        """Sample unless the last sample began less than `gap` seconds ago."""
        if not self.starts or clock() - self.starts[-1] >= gap:
            self.sample()

    def local(self, start: float, end: float) -> float:
        """Mean loop time over the samples inside [start, end] and NEIGHBOURS on each side."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        window = self.samples[max(0, first - NEIGHBOURS):last + NEIGHBOURS]
        return sum(window) / len(window)
