"""Event data model, validation, CSV IO, and time-window slicing.

An event is one asynchronous brightness-change record (x, y, t, p) with
integer microsecond timestamps and polarity in {-1, +1}. Streams keep
events in non-decreasing time order and are immutable after construction,
so read-only concurrent use is safe.

File format: optional comment lines starting with "#". The line
"# t_us,x,y,p" is the column header; a comment of two integers
"# <width>,<height>" is the sensor-geometry sidecar. Every data line is
"t,x,y,p" with decimal integers, t non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import EventParseError, GeometryError

# Polarity -> channel index used by every grid representation downstream.
POLARITY_CHANNEL = {-1: 0, 1: 1}


class Event(NamedTuple):
    x: int
    y: int
    t: int
    p: int


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [t0, t1) in microseconds.

    t0 may be negative (used for the synthetic window before a sequence's
    first frame); events themselves always have t >= 0.
    """

    t0: int
    t1: int

    def __post_init__(self):
        if self.t0 >= self.t1:
            raise ValueError(f"empty or inverted window [{self.t0}, {self.t1})")

    @property
    def duration(self) -> int:
        return self.t1 - self.t0

    def contains(self, t: int) -> bool:
        return self.t0 <= t < self.t1


class EventStream:
    """Immutable, time-ordered set of events bound to a sensor geometry.

    Stored as parallel numpy arrays (structure of arrays) so window slicing
    and stacking are vectorized; iteration yields Event tuples.
    """

    __slots__ = ("t", "x", "y", "p", "width", "height")

    def __init__(self, t, x, y, p, width: int, height: int):
        t = np.ascontiguousarray(t, dtype=np.int64)
        x = np.ascontiguousarray(x, dtype=np.int32)
        y = np.ascontiguousarray(y, dtype=np.int32)
        p = np.ascontiguousarray(p, dtype=np.int8)
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise ValueError("event field arrays must be 1-D and equal length")
        if width <= 0 or height <= 0:
            raise GeometryError(f"invalid sensor geometry {width}x{height}")
        if t.size:
            if np.any(np.diff(t) < 0):
                i = int(np.argmax(np.diff(t) < 0))
                raise EventParseError(
                    f"timestamps decrease at event index {i + 1} "
                    f"({t[i + 1]} after {t[i]})"
                )
            if np.any(t < 0):
                raise EventParseError("negative timestamp")
            if not np.all((p == 1) | (p == -1)):
                raise EventParseError("polarity outside {-1, +1}")
            if np.any((x < 0) | (x >= width) | (y < 0) | (y >= height)):
                raise GeometryError(
                    f"event outside {width}x{height} sensor bounds"
                )
        for name, arr in (("t", t), ("x", x), ("y", y), ("p", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))

    def __setattr__(self, name, value):
        raise AttributeError("EventStream is immutable")

    def __len__(self) -> int:
        return self.t.size

    def __iter__(self) -> Iterator[Event]:
        for i in range(self.t.size):
            yield Event(int(self.x[i]), int(self.y[i]), int(self.t[i]), int(self.p[i]))

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.x[i]), int(self.y[i]), int(self.t[i]), int(self.p[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.p, other.p)
        )

    def __repr__(self) -> str:
        return f"EventStream(n={len(self)}, {self.width}x{self.height})"

    @classmethod
    def empty(cls, width: int, height: int) -> "EventStream":
        return cls([], [], [], [], width, height)

    @classmethod
    def from_events(cls, events, width: int, height: int) -> "EventStream":
        if not events:
            return cls.empty(width, height)
        x, y, t, p = zip(*events)
        return cls(t, x, y, p, width, height)


def slice_window(stream: EventStream, window: TimeWindow) -> EventStream:
    """Events with t0 <= t < t1, original order preserved."""
    lo = int(np.searchsorted(stream.t, window.t0, side="left"))
    hi = int(np.searchsorted(stream.t, window.t1, side="left"))
    return EventStream(
        stream.t[lo:hi], stream.x[lo:hi], stream.y[lo:hi], stream.p[lo:hi],
        stream.width, stream.height,
    )


def load_events(path, geometry: tuple[int, int] | None = None) -> EventStream:
    """Parse an event CSV file into a validated stream.

    Geometry comes from the "# width,height" sidecar line, from the
    `geometry` argument, or (failing both) is inferred from the events.
    """
    path = Path(path)
    ts: list[int] = []
    xs: list[int] = []
    ys: list[int] = []
    ps: list[int] = []
    file_geometry: tuple[int, int] | None = None
    prev_t = None
    # surrogateescape turns a non-ASCII byte into a lone surrogate instead
    # of raising mid-read, so the isascii check below can name its line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.isascii():
                raise EventParseError("non-ASCII byte", lineno)
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                parts = [s.strip() for s in body.split(",")]
                if len(parts) == 2 and all(_is_int(s) for s in parts):
                    file_geometry = (int(parts[0]), int(parts[1]))
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise EventParseError(
                    f"expected 4 comma-separated fields, got {len(parts)}", lineno
                )
            try:
                t, x, y, p = (int(s) for s in parts)
            except ValueError:
                raise EventParseError(f"non-integer field in {line!r}", lineno) from None
            if p not in (-1, 1):
                raise EventParseError(f"polarity {p} not in {{-1, +1}}", lineno)
            if prev_t is not None and t < prev_t:
                raise EventParseError(
                    f"timestamp {t} decreases below previous {prev_t}", lineno
                )
            prev_t = t
            ts.append(t)
            xs.append(x)
            ys.append(y)
            ps.append(p)
    if geometry is None:
        geometry = file_geometry
    if geometry is None:
        width = max(xs, default=0) + 1
        height = max(ys, default=0) + 1
        geometry = (width, height)
    try:
        return EventStream(ts, xs, ys, ps, geometry[0], geometry[1])
    except OverflowError:
        raise EventParseError("a field exceeds the int64 range of t or the "
                              "int32 range of x and y") from None


def save_events(stream: EventStream, path) -> None:
    """Write the CSV form; load_events() reproduces the stream exactly."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# t_us,x,y,p\n")
        fh.write(f"# {stream.width},{stream.height}\n")
        for i in range(len(stream)):
            fh.write(f"{stream.t[i]},{stream.x[i]},{stream.y[i]},{stream.p[i]}\n")


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False
