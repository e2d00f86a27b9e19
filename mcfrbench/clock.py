"""Operation timing that cancels the host's changes of speed.

On a shared host the machine's speed changes by up to 1.6x for seconds at
a time as other tenants come and go. A 15-second run can sit mostly in a
slow or mostly in a fast stretch, so raw medians of different runs differ
by more than any change worth measuring.

The clock therefore runs a fixed reference kernel, which uses no mcfr
code, between timed segments (at most every PROBE_EVERY_S seconds). A
segment's scaled time is its wall time times NOMINAL_S over the reference
kernel's time around it: the median of the probes that end or start
within NEAR_S seconds, or within the segment's own length if longer, of
the segment. These always include the last probe before it and the first
after it. The scaled time is the time the segment would have taken had
the host run at its nominal speed. Both wall and scaled times are kept.
"""

from __future__ import annotations

import bisect
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.2
NEAR_S = 1.0

# Median time of reference_kernel() on a 2-vCPU Intel Xeon VM at 2.1 GHz
# (numpy 2.4, OpenBLAS 0.3.31, one thread) in a quiet minute.
NOMINAL_S = 1.4e-3

_MATRIX = np.random.default_rng(0).random((64, 64))


def reference_kernel() -> None:
    """Interpreter dispatch, small numpy calls and a small matrix product:
    the three kinds of work the workloads spend their time in."""
    table: dict[int, int] = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i
    x = np.arange(2048.0)
    for _ in range(150):
        x = np.sqrt(x + 1.0) * 1.0001
    for _ in range(40):
        _MATRIX @ _MATRIX


class Clock:
    def __init__(self):
        self.probe_start: list[float] = []
        self.probe_end: list[float] = []
        self.probe_s: list[float] = []
        self.segments: list[tuple[float, float] | None] = []

    def probe(self, force: bool = False) -> None:
        """Time the reference kernel (median of three runs) if one is due."""
        if not force and self.probe_end and perf_counter() - self.probe_end[-1] < PROBE_EVERY_S:
            return
        start = perf_counter()
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            reference_kernel()
            runs.append(perf_counter() - t0)
        self.probe_start.append(start)
        self.probe_end.append(perf_counter())
        self.probe_s.append(statistics.median(runs))

    @contextmanager
    def segment(self):
        """Time the block; yields the index of its segment.

        A block that raises leaves its segment unset (None).
        """
        self.probe()
        index = len(self.segments)
        self.segments.append(None)
        start = perf_counter()
        yield index
        self.segments[index] = (start, perf_counter())

    def wall_s(self, index: int) -> float:
        start, end = self.segments[index]
        return end - start

    def scaled_s(self, index: int) -> float:
        start, end = self.segments[index]
        near = max(NEAR_S, end - start)
        first = min(bisect.bisect_left(self.probe_end, start - near),
                    bisect.bisect_right(self.probe_end, start) - 1)
        last = max(bisect.bisect_right(self.probe_start, end + near),
                   bisect.bisect_left(self.probe_start, end) + 1)
        around = self.probe_s[max(first, 0) : last]
        return (end - start) * NOMINAL_S / statistics.median(around)

    def total_s(self, scaled: bool) -> float:
        time = self.scaled_s if scaled else self.wall_s
        return sum(time(i) for i, seg in enumerate(self.segments) if seg is not None)
