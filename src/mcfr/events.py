"""Event data model, validation, CSV IO, and time-window slicing.

An event is one asynchronous brightness-change record (x, y, t, p) with
integer microsecond timestamps and polarity in {-1, +1}. Streams keep
events in non-decreasing time order and are immutable after construction,
so read-only concurrent use is safe.

File format: optional comment lines starting with "#". The line
"# t_us,x,y,p" is the column header; a comment of two integers
"# <width>,<height>" is the sensor-geometry sidecar (each side at most
MAX_SENSOR_SIDE). Every data line is "t,x,y,p", t non-decreasing. In both,
a field is a decimal integer: an optional leading "-" and ASCII digits,
with blanks around it ignored; a "+" sign or "_" digit separators are
refused. Leading zeros do not count, and a field of more than _DIGITS_MAX
significant digits reads as +-10**_DIGITS_MAX, past every range the format
accepts, so int()'s own digit limit never decides the outcome.

Reading takes one of two paths to the same result. The fast path reads the
leading "#" lines, then the rest of the file in blocks of whole lines. A
block must hold only "0123456789,-" and newlines, which rules out blanks,
"+", "_", "#", carriage returns and non-ASCII bytes, and no field longer
than _FIELD_MAX bytes; np.loadtxt then parses it as int64 in one call. Any
other file, and any file the fast path cannot load, goes to the line
parser, which alone names the line of an error and accepts the grammar
above in full. Within
the fast path's alphabet both accept and refuse the same fields, so a file
loads to the same stream, or fails with the same error, on either path.
Writing formats bounded chunks of events in one call each.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import EventParseError, GeometryError, McfrError, require_int

# Largest sensor side accepted, in pixels. Real event cameras stay well
# below it (DAVIS346: 346x260, Prophesee Gen4: 1280x720), and it bounds
# a (height, width) grid built from a stream to 4096^2 cells.
MAX_SENSOR_SIDE = 4096

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
_DIGITS_MAX = 20  # significant digits read; a longer field saturates
_BLANKS = " \t\n\v\f\r"  # what int() strips; str.strip() strips more
# Events formatted per call when writing: the Python ints of one chunk take
# a few MB, and the per-call cost is spread over 32k lines.
_WRITE_CHUNK = 1 << 15


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
        t = _exact("t", t, np.int64)
        x = _exact("x", x, np.int32)
        y = _exact("y", y, np.int32)
        p = _exact("p", p, np.int8)
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise ValueError("event field arrays must be 1-D and equal length")
        require_int("sensor width", width, error=GeometryError)
        require_int("sensor height", height, error=GeometryError)
        if not (0 < width <= MAX_SENSOR_SIDE and 0 < height <= MAX_SENSOR_SIDE):
            raise GeometryError(
                f"invalid sensor geometry {width}x{height} "
                f"(each side must be 1..{MAX_SENSOR_SIDE})"
            )
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
    return stream._slice(lo, hi)


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
                file_geometry = _sidecar(line) or file_geometry
                continue
            fields = _decimal_fields(line)
            if fields is None:
                raise EventParseError(f"non-decimal field in {line!r}", lineno)
            if len(fields) != 4:
                raise EventParseError(
                    f"expected 4 comma-separated fields, got {len(fields)}", lineno
                )
            t, x, y, p = fields
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
    return _build(ts, xs, ys, ps, geometry, file_geometry)


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
    fields = _decimal_fields(comment[1:])
    return tuple(fields) if fields is not None and len(fields) == 2 else None


def _decimal_fields(text: str) -> list[int] | None:
    """The comma-separated fields of an ASCII line as ints, or None if one is
    not a decimal integer. A field past _DIGITS_MAX significant digits reads
    as +-10**_DIGITS_MAX, so int() never sees more than that many digits."""
    fields = []
    for field in text.split(","):
        field = field.strip(_BLANKS)
        digits = field.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            return None
        digits = digits.lstrip("0")
        value = int(digits or "0") if len(digits) <= _DIGITS_MAX else 10**_DIGITS_MAX
        fields.append(-value if field.startswith("-") else value)
    return fields
