"""Frame sequences and their on-disk layout.

A sequence directory holds zero-padded numbered images (binary PGM "P5"
for grayscale, PPM "P6" for color, maxval 255), a "timestamps.txt" with
one int64 microsecond value per line, and optionally "groundtruth.txt"
with one "x,y,w,h" line per frame (floats, 0-based top-left origin).
Both text files become lines through mcfr.errors.text_lines, and the
width, height and maxval of an image header are each one _HEADER_TOKEN.
Header tokens and timestamps follow the integer text grammar, and image
sides the sensor-side rule, both stated in mcfr.errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (GeometryError, McfrError, decimal_int, require_int, require_side,
                     text_lines)

# BT.601 luma weights; the conversion used everywhere color -> gray.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)
# Whitespace (space, tab, CR, LF) and "#" comments up to a CR or LF, then a
# token: other bytes, "#" among them. A comment ends only at CR, LF or the
# end, and a token never starts with "#": the bytes split in one way only.
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\r\n]*(?![^\r\n]))*"
                           rb"([^ \t\r\n#][^ \t\r\n]*)")


@dataclass(frozen=True)
class FrameSequence:
    """A tuple of frames (uint8, (H,W) gray or (H,W,3) color), one int time each."""

    frames: tuple[np.ndarray, ...]
    timestamps: tuple[int, ...]

    def __post_init__(self):
        if len(self.frames) != len(self.timestamps):
            raise ValueError("frame/timestamp count mismatch")
        if not self.frames:
            raise ValueError("empty sequence")
        shape = self.frames[0].shape
        if len(shape) not in (2, 3) or shape[2:] not in ((), (3,)):
            raise GeometryError(f"a frame is (H, W) or (H, W, 3), not {shape}")
        require_side("frame height", shape[0])
        require_side("frame width", shape[1])
        for f in self.frames:
            if f.dtype != np.uint8:
                raise ValueError("frames must be uint8")
            if f.shape != shape:
                raise GeometryError("frames differ in geometry")
        ts = self.timestamps
        for t in ts:  # the event simulator casts them to int64
            require_int("a timestamp", t, -2**63, 2**63 - 1, ValueError)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("timestamps must be strictly increasing")
        # a view of each frame: a caller's later reshape cannot change it
        object.__setattr__(self, "frames", tuple(f.view() for f in self.frames))
        object.__setattr__(self, "timestamps", tuple(map(int, ts)))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].shape[0]

    @property
    def width(self) -> int:
        return self.frames[0].shape[1]

    @property
    def is_color(self) -> bool:
        return self.frames[0].ndim == 3


def to_luminance(frame: np.ndarray) -> np.ndarray:
    """uint8 frame -> float64 luminance on the 0-255 scale."""
    if frame.ndim == 2:
        return frame.astype(np.float64)
    r, g, b = LUMA_WEIGHTS
    return (
        r * frame[..., 0].astype(np.float64)
        + g * frame[..., 1].astype(np.float64)
        + b * frame[..., 2].astype(np.float64)
    )


def to_rgb01(frame: np.ndarray) -> np.ndarray:
    """uint8 frame -> (3, H, W) float64 in [0, 1]; gray replicated."""
    if frame.ndim == 2:
        plane = frame.astype(np.float64) / 255.0
        return np.stack([plane, plane, plane])
    return frame.astype(np.float64).transpose(2, 0, 1) / 255.0


def write_netpbm(path, frame: np.ndarray) -> None:
    """Binary PGM (P5) for (H,W), PPM (P6) for (H,W,3); maxval 255."""
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    if frame.ndim == 2:
        magic = b"P5"
    elif frame.ndim == 3 and frame.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"unsupported frame shape {frame.shape}")
    h, w = frame.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(frame.tobytes())


def read_netpbm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise McfrError(f"{path}: not a binary PGM/PPM file")
    pos = 2
    tokens = []
    for _ in range(3):
        if (token := _HEADER_TOKEN.match(data, pos)) is None:
            raise McfrError(f"{path}: truncated header")
        tokens.append(token[1])
        pos = token.end()
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = (decimal_int(t.decode("ascii", "surrogateescape")) for t in tokens)
    if None in (w, h, maxval):
        raise McfrError(f"{path}: non-numeric header field in {tokens}")
    require_side(f"{path}: width", w)
    require_side(f"{path}: height", h)
    if maxval != 255:
        raise McfrError(f"{path}: unsupported maxval {maxval}")
    shape = (h, w) if magic == b"P5" else (h, w, 3)
    n = math.prod(shape)
    raster = data[pos : pos + n]
    if len(raster) != n:
        raise McfrError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(shape).copy()


def save_sequence(seq: FrameSequence, directory, boxes=None) -> None:
    """Write frames + timestamps.txt (+ groundtruth.txt when boxes given)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = "ppm" if seq.is_color else "pgm"
    for i, frame in enumerate(seq.frames):
        write_netpbm(directory / f"{i:06d}.{ext}", frame)
    with open(directory / "timestamps.txt", "w") as fh:
        for t in seq.timestamps:
            fh.write(f"{t}\n")
    if boxes is not None:
        if len(boxes) != len(seq):
            raise ValueError("one ground-truth box per frame required")
        with open(directory / "groundtruth.txt", "w") as fh:
            for b in boxes:
                fh.write("%.6f,%.6f,%.6f,%.6f\n" % tuple(b))


def load_sequence(directory) -> FrameSequence:
    directory = Path(directory)
    paths = sorted(
        p for p in directory.iterdir() if p.suffix in (".pgm", ".ppm")
    )
    if not paths:
        raise McfrError(f"no .pgm/.ppm frames in {directory}")
    ts_path = directory / "timestamps.txt"
    if not ts_path.exists():
        raise McfrError(f"missing {ts_path}")
    frames = tuple(read_netpbm(p) for p in paths)
    timestamps = []
    for lineno, line in text_lines(ts_path):
        t = decimal_int(line)
        if t is None:
            raise McfrError(f"{ts_path}: line {lineno}: not an int64 "
                            f"decimal timestamp: {line!r}")
        timestamps.append(t)
    try:
        # a count that does not match the frames, or values past int64 or not rising
        return FrameSequence(frames=frames, timestamps=tuple(timestamps))
    except ValueError as exc:
        raise McfrError(f"{ts_path}: {exc}") from None


def load_groundtruth(directory) -> np.ndarray:
    """(N, 4) float array of x,y,w,h rows from groundtruth.txt."""
    path = Path(directory) / "groundtruth.txt"
    if not path.exists():
        raise McfrError(f"missing {path}")
    rows = []
    for lineno, line in text_lines(path):
        try:
            x, y, w, h = box = [float(v) for v in line.split(",")]
            if not (np.isfinite(box).all() and w > 0 and h > 0):
                raise ValueError  # reported as the malformed line it is
        except ValueError:
            raise McfrError(f"{path}: line {lineno}: expected finite x,y and "
                            f"positive finite w,h, got {line!r}") from None
        rows.append(box)
    if not rows:
        raise McfrError(f"{path}: expected x,y,w,h rows")
    return np.asarray(rows, dtype=np.float64)
