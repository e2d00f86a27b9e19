"""Event data model, validation, CSV IO, and time-window slicing.

An event is one asynchronous brightness-change record (x, y, t, p) with
integer microsecond timestamps and polarity in {-1, +1}. A stream is its
columns: the parallel arrays t, x, y and p, in non-decreasing time order,
immutable after construction, so read-only concurrent use is safe.
TimeWindow.offsets alone places an int64 event time in its window: it
refuses an offset past int64 instead of letting it wrap.

File format: optional comment lines starting with "#". The line
"# t_us,x,y,p" is the column header; a comment of two integers
"# <width>,<height>" is the sensor-geometry sidecar (each side at most
errors.MAX_SENSOR_SIDE). Every data line is "t,x,y,p", t non-decreasing.
In both, every field follows the integer text grammar stated in mcfr.errors.

Reading takes one of two paths to the same result. The fast path reads the
leading "#" lines, then the rest of the file in blocks of whole lines. A
block must hold only "0123456789,-" and newlines, which rules out blanks,
"+", "_", "#", carriage returns and non-ASCII bytes, and no field longer
than _FIELD_MAX bytes; np.loadtxt then parses it as int64 in one call. Any
other file, and any file the fast path cannot load, goes to the line
parser, which reads errors.text_lines, alone names the line of an error
and accepts the grammar in full. Within the fast path's alphabet both
accept and refuse the same fields, so a file loads to the same stream, or
fails with the same error, on either path.
Writing formats bounded chunks of events in one call each.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EventParseError,
    GeometryError,
    McfrError,
    decimal_int,
    require_int,
    require_side,
    text_lines,
)

# The bytes a data line may hold on the fast read path.
_PLAIN = b"0123456789,-\n"
# Bytes read, checked and parsed at a time on the fast path; with the
# records of one block, it bounds what the reader holds beside the stream.
_BLOCK = 1 << 20
# The longest field the fast path parses. No integer of 18 characters is out
# of the int64 range, so np.loadtxt parses every such field exactly: older
# NumPy releases parse an integer past its dtype as a float and cast it with
# only a DeprecationWarning. The cap also keeps every field far below int()'s
# digit limit. A longer field, a 19-digit t or leading zeros, goes to the
# line parser.
_FIELD_MAX = 18
# The longest line of four such fields: a longer part line is not buffered.
_LINE_MAX = 4 * _FIELD_MAX + 3
# The dtype of each column, in file order.
_COLUMNS = (("t", np.int64), ("x", np.int32), ("y", np.int32), ("p", np.int8))
# Events formatted per call when writing: the Python ints of one chunk take
# a few MB, and the per-call cost is spread over 32k lines.
_WRITE_CHUNK = 1 << 15
# The range of an event time.
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [t0, t1) in microseconds.

    The bounds are integers (not bools), stored as Python ints, and may lie
    past int64; t0 may be negative (the synthetic window before a sequence's
    first frame), while events themselves always have t >= 0.
    """

    t0: int
    t1: int

    def __post_init__(self):
        require_int("TimeWindow.t0", self.t0, error=ValueError)
        object.__setattr__(self, "t0", int(self.t0))
        require_int("TimeWindow.t1", self.t1, self.t0 + 1, error=ValueError)  # not empty
        object.__setattr__(self, "t1", int(self.t1))

    @property
    def duration(self) -> int:
        return self.t1 - self.t0

    def offsets(self, t: np.ndarray) -> np.ndarray:
        """(t - t0)/(t1 - t0) in float64 for int64 event times t in the
        window. t0 is clamped to int64, which moves no offset that fits
        int64; one that does not wraps negative and raises McfrError."""
        rel = (t - min(max(self.t0, _INT64.min), _INT64.max)) / float(self.duration)
        if (rel < 0).any():
            raise McfrError(f"event offsets in {self} exceed the int64 range")
        return rel


class EventStream:
    """Immutable, time-ordered set of events bound to a sensor geometry.

    Stored as parallel numpy arrays (structure of arrays) so window slicing
    and stacking are vectorized; read an event from the columns.
    """

    __slots__ = ("t", "x", "y", "p", "width", "height")

    def __init__(self, t, x, y, p, width: int, height: int):
        t = _exact("t", t, np.int64)
        x = _exact("x", x, np.int32)
        y = _exact("y", y, np.int32)
        p = _exact("p", p, np.int8)
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise ValueError("event field arrays must be 1-D and equal length")
        require_side("sensor width", width)
        require_side("sensor height", height)
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
        for arr in (t, x, y, p):
            arr.setflags(write=False)
        self._fill(t, x, y, p, int(width), int(height))

    def _fill(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _slice(self, lo: int, hi: int) -> "EventStream":
        """Events lo..hi-1 without a second validation: a slice of a valid
        stream is valid, and a view of a read-only array is read-only."""
        out = object.__new__(EventStream)
        out._fill(self.t[lo:hi], self.x[lo:hi], self.y[lo:hi], self.p[lo:hi],
                  self.width, self.height)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("EventStream is immutable")

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in self.__slots__)

    def __repr__(self) -> str:
        return f"EventStream(n={len(self)}, {self.width}x{self.height})"

    @classmethod
    def from_events(cls, events, width: int, height: int) -> "EventStream":
        """The stream of (x, y, t, p) rows, in time order."""
        x, y, t, p = zip(*events) if events else ((),) * 4
        return cls(t, x, y, p, width, height)


def slice_window(stream: EventStream, window: TimeWindow) -> EventStream:
    """Events with t0 <= t < t1, original order preserved."""
    return stream._slice(_first_at(stream.t, window.t0), _first_at(stream.t, window.t1))


def _first_at(t: np.ndarray, bound) -> int:
    """Index of the first time >= bound. np.searchsorted would compare a
    bound outside int64 as float64, where 2**63 - 1 rounds to 2**63, so such
    a bound maps to the end (above) or the start (below) of the stream."""
    if bound > _INT64.max:
        return len(t)
    if bound < _INT64.min:
        return 0
    return int(np.searchsorted(t, bound, side="left"))


def _exact(name: str, values, dtype) -> np.ndarray:
    """values as a contiguous dtype array. EventParseError if the cast would
    change a value: wrap an integer out of range or drop a fraction."""
    a = np.asarray(values)
    if a.dtype == dtype:
        return np.ascontiguousarray(a)
    try:
        with np.errstate(invalid="ignore"):  # NaN and inf are refused below
            out = a.astype(dtype)
    except OverflowError:  # a Python int past int64
        out = None
    if out is None or not np.array_equal(out, a):
        raise EventParseError(f"{name} holds a value that is not an integer "
                              f"in the {np.dtype(dtype)} range")
    return np.ascontiguousarray(out)


def load_events(path, geometry: tuple[int, int] | None = None) -> EventStream:
    """Parse an event CSV file into a validated stream.

    Geometry comes from the "# width,height" sidecar line, from the
    `geometry` argument, or (failing both) is inferred from the events.
    """
    try:
        return _load_plain(Path(path), geometry)
    except (ValueError, McfrError):  # the line parser names the line at fault
        return _load_events_lines(path, geometry)


def _load_plain(path: Path, geometry) -> EventStream:
    """The stream of a file whose body holds only _PLAIN bytes. The body is
    read in blocks, and np.loadtxt parses the whole lines of each. ValueError
    or McfrError for any file it does not load."""
    file_geometry = None
    blocks = []
    with open(path, "rb") as fh:
        while (raw := fh.readline()).startswith(b"#"):
            # text mode would split this line at a carriage return
            if b"\r" in raw or not raw.isascii():
                raise ValueError("a header line the line parser reads")
            file_geometry = _sidecar(raw.decode("ascii").strip()) or file_geometry
        fh.seek(-len(raw), io.SEEK_CUR)
        tail = b""
        while block := fh.read(_BLOCK):
            if block.translate(None, _PLAIN):
                raise ValueError("a byte outside the plain alphabet")
            lines, _, tail = (tail + block).rpartition(b"\n")
            if len(tail) > _LINE_MAX:
                raise ValueError(f"a line longer than {_LINE_MAX} bytes")
            blocks.append(_parse_plain(lines))
        blocks.append(_parse_plain(tail))
    t, x, y, p = (np.concatenate(c) for c in zip(*blocks))
    return _build(t, x, y, p, geometry, file_geometry)


def _parse_plain(lines: bytes) -> list[np.ndarray]:
    """The t, x, y, p columns of a run of whole plain lines. ValueError if a
    field is longer than _FIELD_MAX bytes or np.loadtxt refuses a line, and
    EventParseError if a value is out of its column's range."""
    b = np.frombuffer(lines, np.uint8)
    seps = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    if np.diff(seps, prepend=-1, append=len(lines)).max() > _FIELD_MAX + 1:
        raise ValueError(f"a field longer than {_FIELD_MAX} bytes")
    if lines.strip(b"\n"):
        rows = np.loadtxt(io.BytesIO(lines), delimiter=",", dtype=np.int64,
                          comments=None, ndmin=2)
    else:  # blank lines only: np.loadtxt would warn
        rows = np.empty((0, 4), np.int64)
    if rows.shape[1] != 4:
        raise ValueError(f"{rows.shape[1]} fields, not 4")
    return [_exact(name, rows[:, i], dtype) for i, (name, dtype) in enumerate(_COLUMNS)]


def _load_events_lines(path, geometry: tuple[int, int] | None) -> EventStream:
    """load_events one line at a time: the reference grammar, and the only
    path that names the line of an error."""
    rows: list[list[int]] = []
    file_geometry: tuple[int, int] | None = None
    for lineno, line in text_lines(path):
        if not line.isascii():
            raise EventParseError("non-ASCII byte", lineno)
        if line.startswith("#"):
            file_geometry = _sidecar(line) or file_geometry
            continue
        fields = [decimal_int(f) for f in line.split(",")]
        if None in fields:
            raise EventParseError(f"non-decimal field in {line!r}", lineno)
        if len(fields) != 4:
            raise EventParseError(
                f"expected 4 comma-separated fields, got {len(fields)}", lineno
            )
        t, _, _, p = fields
        if p not in (-1, 1):
            raise EventParseError(f"polarity {p} not in {{-1, +1}}", lineno)
        if rows and t < rows[-1][0]:
            raise EventParseError(
                f"timestamp {t} decreases below previous {rows[-1][0]}", lineno
            )
        rows.append(fields)
    columns = zip(*rows) if rows else ((),) * 4
    return _build(*columns, geometry, file_geometry)


def _build(t, x, y, p, geometry, file_geometry) -> EventStream:
    """The stream of parsed columns. Geometry is the argument, else the
    sidecar's, else one past the largest x and y."""
    if geometry is None:
        geometry = file_geometry
    if geometry is None:
        geometry = tuple(int(np.max(c)) + 1 if len(c) else 1 for c in (x, y))
    return EventStream(t, x, y, p, geometry[0], geometry[1])


def save_events(stream: EventStream, path) -> None:
    """Write the CSV form; load_events() reproduces the stream exactly."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# t_us,x,y,p\n")
        fh.write(f"# {stream.width},{stream.height}\n")
        cols = (stream.t, stream.x, stream.y, stream.p)
        for i in range(0, len(stream), _WRITE_CHUNK):
            rows = np.stack([c[i:i + _WRITE_CHUNK] for c in cols], axis=1)
            fh.write(("%d,%d,%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist()))


def _sidecar(comment: str) -> tuple[int, int] | None:
    """(width, height) if a stripped "#" line holds two decimal integers."""
    fields = [decimal_int(f) for f in comment[1:].split(",")]
    return tuple(fields) if None not in fields and len(fields) == 2 else None
