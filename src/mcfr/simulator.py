"""Event synthesis from frame sequences, exposure perturbation, and toy scenes.

The contrast-threshold model: every pixel keeps a reference log intensity.
Between consecutive frames the log intensity moves linearly, so within a
frame pair a pixel crosses one way only and has one signed threshold: +c_pos
upward, -c_neg downward. Each crossing emits an event of that sign at the
interpolated crossing time and advances the reference by one signed step.
Per-pixel state is kept raveled; an event is its flat pixel index, repeated
once per crossing, and its position, threshold and gaps are gathered by it.

Events are always synthesized from the clean frames; exposure perturbation
is applied to the frames afterwards, so the event stream keeps edges that
the over/under-exposed frames lose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (ConfigError, require_choice, require_int, require_real,
                     require_side, store_tuple)
from .events import EventStream
from .frames import FrameSequence, to_luminance


@dataclass(frozen=True)
class SimConfig:
    """Contrast-threshold camera model parameters (log-intensity units)."""

    c_pos: float = 0.15
    c_neg: float = 0.15
    log_eps: float = 1.0
    threshold_noise_std: float = 0.0

    def __post_init__(self):
        for name in ("c_pos", "c_neg", "log_eps"):
            require_real(f"SimConfig.{name}", getattr(self, name), 0, strict=True)
        require_real("SimConfig.threshold_noise_std", self.threshold_noise_std, 0)


@dataclass(frozen=True)
class ExposureConfig:
    """Multiplicative exposure gains, drawn log-uniformly per mode."""

    gain_range_under: tuple[float, float] = (0.125, 0.5)
    gain_range_over: tuple[float, float] = (2.0, 8.0)
    mode: Literal["under", "over", "random"] = "random"

    def __post_init__(self):
        for name in ("gain_range_under", "gain_range_over"):
            lo, hi = store_tuple(self, name, 2)
            require_real(f"ExposureConfig.{name}[0]", lo, 0, strict=True)
            require_real(f"ExposureConfig.{name}[1]", hi, lo)
        require_choice("exposure mode", self.mode, ("under", "over", "random"))


# Threshold jitter can make a per-pixel threshold arbitrarily small; clamp
# like real-sensor models do to keep event counts finite.
_MIN_THRESHOLD = 0.01


def frames_to_events(fs: FrameSequence, cfg: SimConfig, seed: int = 0) -> EventStream:
    """Simulate the threshold-crossing camera over a frame sequence.

    Deterministic under (inputs, seed). With threshold_noise_std = 0 the
    per-pixel accumulated event mass c_pos*N+ - c_neg*N- differs from the
    total log-intensity change by less than one threshold.
    """
    if len(fs) < 2:
        raise ConfigError("need at least 2 frames to simulate events")
    rng = np.random.default_rng(seed)
    h, w = fs.height, fs.width
    c_pos, c_neg = cfg.c_pos, cfg.c_neg
    if cfg.threshold_noise_std > 0:
        std = cfg.threshold_noise_std
        c_pos = np.maximum(c_pos + rng.normal(0.0, std, h * w), _MIN_THRESHOLD)
        c_neg = np.maximum(c_neg + rng.normal(0.0, std, h * w), _MIN_THRESHOLD)

    # per-pixel state is raveled; an event's flat pixel index `at` gathers the rest
    log_frames = [np.log(to_luminance(f) + cfg.log_eps).ravel() for f in fs.frames]
    ref = log_frames[0]
    chunks = []
    for i in range(len(fs) - 1):
        ta, tb = fs.timestamps[i], fs.timestamps[i + 1]
        l0, l1 = log_frames[i], log_frames[i + 1]
        d = l1 - ref
        # the linear path crosses one way, so one signed threshold per pixel;
        # epsilon keeps exact multiples stable
        step = np.where(d > 0, c_pos, -c_neg)
        n = np.floor(d / step + 1e-9).astype(np.int64)
        fired = np.flatnonzero(n)
        at = np.repeat(fired, n[fired])
        # at is sorted, so an event's k is its distance from its pixel's first
        # copy; the k-th crossing level sits (k+1) thresholds from the reference
        k = np.arange(at.size) - np.searchsorted(at, at)
        signed = step[at]
        gap = (k + 1.0) * signed + (ref - l0)[at]
        span = (l1 - l0)[at]
        # span == 0 with events pending is float-fuzz territory; pin to
        # the end of the interval rather than dividing by zero
        frac = np.divide(gap, span, out=np.ones_like(gap), where=span != 0)
        frac = np.clip(frac, 0.0, 1.0)
        # round the offset from ta, not the time: float64 drops bits past 2**53
        t = ta + np.clip(np.rint(frac * (tb - ta)), 0, tb - 1 - ta).astype(np.int64)
        y, x = np.divmod(at, w)
        p = np.sign(signed).astype(np.int8)
        order = np.lexsort((p, x, y, t))
        chunks.append((t[order], x[order], y[order], p[order]))
        ref = ref + n * step
    return EventStream(*(np.concatenate(c) for c in zip(*chunks)), w, h)


def perturb_exposure(
    fs: FrameSequence, cfg: ExposureConfig, seed: int = 0
) -> FrameSequence:
    """Per-frame multiplicative gain, clamped to the 8-bit range."""
    rng = np.random.default_rng(seed)
    out = []
    for frame in fs.frames:
        # "random" draws a coin per frame; the fixed modes draw nothing for it
        under = cfg.mode == "under" or cfg.mode == "random" and rng.random() < 0.5
        lo, hi = cfg.gain_range_under if under else cfg.gain_range_over
        gain = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        scaled = np.clip(np.rint(frame.astype(np.float64) * gain), 0, 255)
        out.append(scaled.astype(np.uint8))
    return FrameSequence(frames=tuple(out), timestamps=fs.timestamps)


@dataclass(frozen=True)
class SceneSpec:
    """Moving bright rectangle over an optionally textured background."""

    width: int = 64
    height: int = 64
    object_w: int = 12
    object_h: int = 12
    frame_count: int = 60
    frame_interval_us: int = 33_333
    motion: Literal["linear", "sine"] = "linear"
    velocity: tuple[float, float] = (0.8, 0.0)  # px/frame, linear mode
    amplitude: float = 10.0  # px, sine mode (vertical)
    period: float = 30.0  # frames, sine mode
    drift: float = 1.0  # px/frame horizontal drift, sine mode
    background_texture: bool = True
    object_value: int = 230
    background_value: int = 40

    def __post_init__(self):
        require_side("SceneSpec.width", self.width, ConfigError)
        require_side("SceneSpec.height", self.height, ConfigError)
        for name, lo, hi in (("object_w", 1, self.width), ("object_h", 1, self.height),
                             ("object_value", 0, 255), ("background_value", 0, 255),
                             ("frame_count", 1, None), ("frame_interval_us", 1, None)):
            require_int(f"SceneSpec.{name}", getattr(self, name), lo, hi)
        for i, v in enumerate(store_tuple(self, "velocity", 2)):  # (dx, dy)
            require_real(f"SceneSpec.velocity[{i}]", v)
        for name, lo in (("amplitude", None), ("drift", None), ("period", 0)):
            require_real(f"SceneSpec.{name}", getattr(self, name), lo, strict=True)
        require_choice("scene motion", self.motion, ("linear", "sine"))


def gen_synthetic_sequence(
    spec: SceneSpec, seed: int = 0
) -> tuple[FrameSequence, np.ndarray]:
    """Render the scene; returns (sequence, ground-truth boxes (N,4)).

    The rectangle is drawn at integer positions (rounded from the motion
    path) and the ground truth is exactly the drawn rectangle.
    """
    rng = np.random.default_rng(seed)
    w, h = spec.width, spec.height
    if spec.background_texture:
        # static blocky texture keeps edges for the tracker without per-frame noise
        coarse = rng.integers(
            max(0, spec.background_value - 25),
            min(255, spec.background_value + 25),
            size=(h // 4 + 1, w // 4 + 1),
        ).astype(np.uint8)
        background = np.kron(coarse, np.ones((4, 4), dtype=np.uint8))[:h, :w]
    else:
        background = np.full((h, w), spec.background_value, dtype=np.uint8)

    # two-tone object so the crop has interior structure, not just edges
    obj = np.full((spec.object_h, spec.object_w), spec.object_value, dtype=np.uint8)
    obj[: spec.object_h // 2, : spec.object_w // 2] = max(
        0, spec.object_value - 60
    )
    obj[spec.object_h // 2 :, spec.object_w // 2 :] = max(
        0, spec.object_value - 60
    )

    # start position leaves room for the full motion path
    x0 = 4.0
    y0 = (h - spec.object_h) / 2.0

    frames = []
    boxes = np.zeros((spec.frame_count, 4), dtype=np.float64)
    for i in range(spec.frame_count):
        if spec.motion == "linear":
            cx = x0 + spec.velocity[0] * i
            cy = y0 + spec.velocity[1] * i
        else:
            cx = x0 + spec.drift * i
            cy = y0 + spec.amplitude * math.sin(2.0 * math.pi * i / spec.period)
        xi = int(round(cx))
        yi = int(round(cy))
        xi = min(max(xi, 0), w - spec.object_w)
        yi = min(max(yi, 0), h - spec.object_h)
        frame = background.copy()
        frame[yi : yi + spec.object_h, xi : xi + spec.object_w] = obj
        frames.append(frame)
        boxes[i] = (xi, yi, spec.object_w, spec.object_h)

    timestamps = tuple(i * spec.frame_interval_us for i in range(spec.frame_count))
    return FrameSequence(frames=tuple(frames), timestamps=timestamps), boxes
