"""In-memory span tracer for the benchmark's traced run.

A span is (name, start_ns, end_ns, parent index) taken with perf_counter_ns.
Counts (events per window, spikes, dead ReLU outputs, ...) are recorded at
the same boundaries, tagged with the round they were made in: -1 for
set-up, then 0, 1, ... for the frames, steps or round trips of the timed
phase. Nothing is written until the run ends (see `dump`).

The untraced run never builds a Tracer: it calls the library directly, so
tracing costs it nothing.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.counts: dict[str, list[tuple[int, float]]] = {}
        self.round = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append((self.round, float(value)))

    def durations_ms(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append((end - start) / 1e6)
        return out

    def self_ms(self) -> dict[str, list[float]]:
        """Span duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out.setdefault(name, []).append((end - start - inner) / 1e6)
        return out

    def first_round_count(self, name: str) -> float | None:
        """Median of a count over the earliest round that recorded it.

        Set-up and each round see the same inputs for a given seed, so this
        value repeats exactly from run to run.
        """
        records = self.counts.get(name)
        if not records:
            return None
        timed = [r for r, _ in records if r >= 0]
        first = min(timed) if timed else -1
        return statistics.median(v for r, v in records if r == first)

    def median_count(self, name: str) -> float | None:
        records = self.counts.get(name)
        if not records:
            return None
        return statistics.median(v for _, v in records)

    def dump(self, path) -> None:
        """Spans as JSON lines (times relative to the first span), then counts."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start - t0, "end_ns": end - t0,
                    "parent": parent,
                }) + "\n")
            for name, records in self.counts.items():
                fh.write(json.dumps({"count": name, "records": records}) + "\n")
