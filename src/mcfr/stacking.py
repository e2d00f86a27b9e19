"""Stacked event grids: per-polarity counts and latest timestamps.

For a time window W, the count grid holds the number of events per pixel and
polarity inside W, and the timestamp grid the most recent event time per pixel
and polarity (0 where no event fell). One pass gives both: every event gets a
cell index (polarity plane, row, column) into a (2, H, W) grid, and a frame's
size is its planes' shape. Everything is a pure function of immutable inputs.

Binary dump format, its header one struct (_HEADER): magic "MCST", u32
width, u32 height (each a sensor side as mcfr.errors defines it), u64 t0,
u64 t1 (little-endian), then four planes of 32-bit IEEE-754 little-endian
floats in [0, 1], in the order c_pos, c_neg, t_pos, t_neg.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, McfrError, require_int, require_side
from .events import EventStream, TimeWindow, slice_window

_MAGIC = b"MCST"
_HEADER = struct.Struct("<4sIIQQ")  # magic, width, height, t0, t1


@dataclass(frozen=True)
class StackedFrame:
    c_pos: np.ndarray  # (H, W) int64 counts
    c_neg: np.ndarray
    t_pos: np.ndarray  # (H, W) int64 latest timestamp, 0 where empty
    t_neg: np.ndarray
    window: TimeWindow


def stack_events(stream: EventStream, window: TimeWindow) -> StackedFrame:
    """Count and latest-timestamp grids for the events inside the window."""
    sub = slice_window(stream, window)
    h, w = stream.height, stream.width
    # one cell per (polarity, pixel); negative events land in the second plane
    cell = (sub.p != 1) * (h * w) + sub.y.astype(np.intp) * w + sub.x
    counts = np.bincount(cell, minlength=2 * h * w).reshape(2, h, w)
    latest = np.zeros((2, h, w), dtype=np.int64)
    # timestamps are >= 0, so max against the 0 fill is safe; ravel is a view
    np.maximum.at(latest.ravel(), cell, sub.t)
    return StackedFrame(*counts, *latest, window)


def normalize_stacked(f: StackedFrame) -> np.ndarray:
    """(4, H, W) float64 in [0, 1].

    Counts are divided by the frame-wide maximum count (min 1); timestamps
    are the window's offsets (TimeWindow.offsets, which refuses one past
    int64 with McfrError) where an event exists and 0 elsewhere.
    """
    denom = max(1, int(max(f.c_pos.max(), f.c_neg.max())))
    out = np.zeros((4, *f.c_pos.shape), dtype=np.float64)
    for i, (count, latest) in enumerate([(f.c_pos, f.t_pos), (f.c_neg, f.t_neg)]):
        out[i] = count / denom
        hit = count > 0
        out[i + 2][hit] = f.window.offsets(latest[hit])
    return out


def assemble_input(rgb: np.ndarray, f: StackedFrame) -> np.ndarray:
    """(7, H, W) network input, channels r, g, b, c_pos, c_neg, t_pos,
    t_neg: a format contract, whose groups network.INPUT_GROUPS lists.

    rgb must be (3, H, W) scaled to [0, 1]. Every channel group is filled;
    the network zeroes the groups an ablation variant leaves out.
    """
    if rgb.shape != (3, *f.c_pos.shape):
        raise GeometryError(f"rgb shape {rgb.shape} does not match stacked {f.c_pos.shape}")
    return np.concatenate([rgb, normalize_stacked(f)])


def save_stacked(f: StackedFrame, path) -> None:
    for bound in (f.window.t0, f.window.t1):
        require_int("a window bound stored as u64", bound, 0, 2**64 - 1, McfrError)
    norm = normalize_stacked(f)
    _, height, width = norm.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, width, height, f.window.t0, f.window.t1))
        fh.write(norm.astype("<f4").tobytes())


def load_stacked(path) -> tuple[np.ndarray, TimeWindow, int, int]:
    """Returns (4, H, W) float32 planes plus window and geometry."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise McfrError(f"{path}: bad magic, not a stacked-frame dump")
    if len(data) < _HEADER.size:
        raise McfrError(f"{path}: truncated header")
    _, width, height, t0, t1 = _HEADER.unpack_from(data)
    require_side(f"{path}: width", width)
    require_side(f"{path}: height", height)
    require_int(f"{path}: the end of window [{t0}, t1)", t1, t0 + 1, error=McfrError)
    need = _HEADER.size + 4 * width * height * 4
    if len(data) != need:
        raise McfrError(f"{path}: expected {need} bytes, got {len(data)}")
    planes = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).reshape(4, height, width)
    # min and max, not a mask: NaN propagates through both and fails the test
    if not (planes.min() >= 0.0 and planes.max() <= 1.0):
        raise McfrError(f"{path}: plane values outside [0, 1]")
    return planes.copy(), TimeWindow(t0, t1), width, height
