"""Frame sequences and their on-disk layout.

A sequence directory holds zero-padded numbered images (binary PGM "P5"
for grayscale, PPM "P6" for color, maxval 255, each side at most
events.MAX_SENSOR_SIDE), a "timestamps.txt" with
one integer microsecond value per line, and optionally "groundtruth.txt"
with one "x,y,w,h" line per frame (floats, 0-based top-left origin).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, McfrError, require_int
from .events import MAX_SENSOR_SIDE

# BT.601 luma weights; the conversion used everywhere color -> gray.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class FrameSequence:
    """Frames (uint8, (H,W) gray or (H,W,3) color) with per-frame timestamps."""

    frames: tuple[np.ndarray, ...]
    timestamps: tuple[int, ...]

    def __post_init__(self):
        if len(self.frames) != len(self.timestamps):
            raise ValueError("frame/timestamp count mismatch")
        if not self.frames:
            raise ValueError("empty sequence")
        shape = self.frames[0].shape
        for f in self.frames:
            if f.dtype != np.uint8:
                raise ValueError("frames must be uint8")
            if f.shape != shape:
                raise GeometryError("frames differ in geometry")
        ts = self.timestamps
        for t in ts:
            require_int("a timestamp", t, error=ValueError)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("timestamps must be strictly increasing")

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
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise McfrError(f"{path}: not a binary PGM/PPM file")
    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them.
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        if pos == start:
            raise McfrError(f"{path}: truncated header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise McfrError(f"{path}: non-numeric header field in {tokens}") from None
    if w <= 0 or h <= 0:
        raise McfrError(f"{path}: invalid dimensions {w}x{h}")
    if w > MAX_SENSOR_SIDE or h > MAX_SENSOR_SIDE:
        raise GeometryError(
            f"{path}: {w}x{h} frame exceeds the {MAX_SENSOR_SIDE}-pixel side limit"
        )
    if maxval != 255:
        raise McfrError(f"{path}: unsupported maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    n = w * h * channels
    raster = data[pos : pos + n]
    if len(raster) != n:
        raise McfrError(f"{path}: truncated raster")
    arr = np.frombuffer(raster, dtype=np.uint8)
    return arr.reshape((h, w) if channels == 1 else (h, w, 3)).copy()


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
    try:
        # ValueError covers a non-integer line, a count that does not match
        # the frames and non-increasing values
        timestamps = tuple(int(tok) for tok in ts_path.read_text().split())
        return FrameSequence(frames=frames, timestamps=timestamps)
    except ValueError as exc:
        raise McfrError(f"{ts_path}: {exc}") from None


def load_groundtruth(directory) -> np.ndarray:
    """(N, 4) float array of x,y,w,h rows from groundtruth.txt."""
    path = Path(directory) / "groundtruth.txt"
    if not path.exists():
        raise McfrError(f"missing {path}")
    rows = []
    text = path.read_text(encoding="ascii", errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
