"""Stacked event grids: per-polarity counts and latest timestamps.

For a time window W, the count grid holds the number of events per pixel
and polarity inside W, and the timestamp grid holds the most recent event
time per pixel and polarity (0 where no event fell). Everything here is a
pure function of immutable inputs.

Binary dump format (CLI `stack` output): magic "MCST", u32 width, u32
height, u64 t0, u64 t1 (little-endian), then four planes of 32-bit IEEE-754
little-endian floats in the order c_pos, c_neg, t_pos, t_neg.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, McfrError
from .events import EventStream, TimeWindow, slice_window

# channel order of assembled network inputs; a format contract
INPUT_CHANNELS = ("r", "g", "b", "c_pos", "c_neg", "t_pos", "t_neg")

_MAGIC = b"MCST"


@dataclass(frozen=True)
class StackedFrame:
    c_pos: np.ndarray  # (H, W) int64 counts
    c_neg: np.ndarray
    t_pos: np.ndarray  # (H, W) int64 latest timestamp, 0 where empty
    t_neg: np.ndarray
    window: TimeWindow
    width: int
    height: int


def stack_events(stream: EventStream, window: TimeWindow) -> StackedFrame:
    """Count and latest-timestamp grids for the events inside the window."""
    sub = slice_window(stream, window)
    h, w = stream.height, stream.width
    c_pos = np.zeros((h, w), dtype=np.int64)
    c_neg = np.zeros((h, w), dtype=np.int64)
    t_pos = np.zeros((h, w), dtype=np.int64)
    t_neg = np.zeros((h, w), dtype=np.int64)
    pos = sub.p == 1
    neg = ~pos
    np.add.at(c_pos, (sub.y[pos], sub.x[pos]), 1)
    np.add.at(c_neg, (sub.y[neg], sub.x[neg]), 1)
    # timestamps are >= 0, so max against the 0 fill is safe
    np.maximum.at(t_pos, (sub.y[pos], sub.x[pos]), sub.t[pos])
    np.maximum.at(t_neg, (sub.y[neg], sub.x[neg]), sub.t[neg])
    return StackedFrame(
        c_pos=c_pos, c_neg=c_neg, t_pos=t_pos, t_neg=t_neg,
        window=window, width=w, height=h,
    )


def normalize_stacked(f: StackedFrame) -> np.ndarray:
    """(4, H, W) float64 in [0, 1].

    Counts are divided by the frame-wide maximum count (min 1); timestamps
    map to (t - t0)/(t1 - t0) where an event exists and 0 elsewhere.
    """
    denom = max(1, int(max(f.c_pos.max(), f.c_neg.max())))
    span = float(f.window.duration)
    out = np.zeros((4, f.height, f.width), dtype=np.float64)
    out[0] = f.c_pos / denom
    out[1] = f.c_neg / denom
    out[2] = np.where(f.c_pos > 0, (f.t_pos - f.window.t0) / span, 0.0)
    out[3] = np.where(f.c_neg > 0, (f.t_neg - f.window.t0) / span, 0.0)
    return out


def assemble_input(
    rgb: np.ndarray,
    f: StackedFrame,
    *,
    use_rgb: bool = True,
    use_counts: bool = True,
    use_timestamps: bool = True,
) -> np.ndarray:
    """(7, H, W) network input in the fixed INPUT_CHANNELS order.

    rgb must be (3, H, W) scaled to [0, 1]. Ablation flags zero the omitted
    channel groups while preserving geometry.
    """
    if rgb.shape != (3, f.height, f.width):
        raise GeometryError(
            f"rgb shape {rgb.shape} does not match stacked {f.height}x{f.width}"
        )
    norm = normalize_stacked(f)
    out = np.zeros((7, f.height, f.width), dtype=np.float64)
    if use_rgb:
        out[0:3] = rgb
    if use_counts:
        out[3:5] = norm[0:2]
    if use_timestamps:
        out[5:7] = norm[2:4]
    return out


def save_stacked(f: StackedFrame, path) -> None:
    if f.window.t0 < 0:
        raise McfrError("dump format stores unsigned window bounds")
    norm = normalize_stacked(f)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIQQ", f.width, f.height, f.window.t0, f.window.t1))
        for plane in norm:
            fh.write(plane.astype("<f4").tobytes())


def load_stacked(path) -> tuple[np.ndarray, TimeWindow, int, int]:
    """Returns (4, H, W) float32 planes plus window and geometry."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise McfrError(f"{path}: bad magic, not a stacked-frame dump")
    if len(data) < 28:
        raise McfrError(f"{path}: truncated header")
    width, height, t0, t1 = struct.unpack_from("<IIQQ", data, 4)
    if width == 0 or height == 0:
        raise McfrError(f"{path}: invalid dimensions {width}x{height}")
    if t1 <= t0:
        raise McfrError(f"{path}: empty or inverted window [{t0}, {t1})")
    need = 4 + 24 + 4 * width * height * 4
    if len(data) != need:
        raise McfrError(f"{path}: expected {need} bytes, got {len(data)}")
    planes = np.frombuffer(data, dtype="<f4", offset=28).reshape(4, height, width)
    return planes.copy(), TimeWindow(int(t0), int(t1)), int(width), int(height)
