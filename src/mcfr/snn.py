"""Spike-response-model layers for the event branch.

Discrete-time simulation of SRM neurons (the neuron model of SLAYER,
Shrestha & Orchard, NeurIPS 2018): incoming binary spike trains are
filtered by the synaptic kernel v, weighted by a spatial convolution, and
summed with the refractory trace left by the neuron's own past spikes
(kernel u, which starts at -2*PHI and relaxes to 0). A neuron fires when
its potential reaches the threshold PHI; the refractory contribution of a
spike at step k is felt at steps strictly after k.

The branch is frozen: `network.MCFRModel.initialize` draws its weights
once, and no gradient reaches them. Only its widths and time bins vary.
The neuron constants are fixed below, and a layer is its (out, in,
UEE_KERNEL, UEE_KERNEL) weight array, convolved at UEE_STRIDE with
UEE_PADDING zeros. The final layer emits its membrane drive without
thresholding; the time mean of that drive is the branch's feature map.

Layout: the public functions take and return (C, H, W, T) tensors, time
last. Inside a spiking layer the convolution runs with time as its batch
axis, and the simulation keeps that native time-major (T, O*H'*W')
layout, so each step reads and writes one contiguous row. A spike adds
the refractory tail only to the columns of the neurons that fired; a
dense update would add 0*u = -0.0 to the others, which changes no value,
so the result is the same to the bit. The spikes leave as an
(O, H', W', T) view of the time-major buffer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, require_int
from .events import EventStream, TimeWindow, slice_window
from .nn import adaptive_avgpool_forward, conv2d_forward

# Synaptic and refractory time constants (ms), firing threshold, and the
# simulation step (ms). DT <= TAU_S/4 samples the rise of v finely enough.
TAU_S, TAU_R, PHI, DT = 5.0, 5.0, 1.0, 1.0
# The geometry of every event-branch layer.
UEE_KERNEL, UEE_STRIDE, UEE_PADDING = 3, 2, 1


@dataclass(frozen=True)
class SRMParams:
    """The number of time bins of the spike encoding."""

    t_bins: int = 32

    def __post_init__(self):
        require_int("t_bins", self.t_bins, 1)


def kernel_v(t, tau_s: float):
    """Synaptic kernel (t/tau_s)*exp(1 - t/tau_s), gated to t >= 0.

    Peaks at exactly 1.0 when t == tau_s.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t >= 0, (t / tau_s) * np.exp(1.0 - t / tau_s), 0.0)
    return float(out) if out.ndim == 0 else out


def kernel_u(t, tau_r: float, phi: float):
    """Refractory kernel -2*phi*exp(-t/tau_r), gated to t >= 0."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(under="ignore"):
        out = np.where(t >= 0, -2.0 * phi * np.exp(-t / tau_r), 0.0)
    return float(out) if out.ndim == 0 else out


def encode_events_to_spikes(
    stream: EventStream, window: TimeWindow, params: SRMParams
) -> np.ndarray:
    """Binary (2, H, W, T) tensor over the stream's sensor; channel 0 =
    negative, 1 = positive.

    Bin index floor((t - t0)/(t1 - t0) * t_bins), clamped into range; a
    bin is 1 if at least one event of that polarity hit that pixel.
    """
    sub = slice_window(stream, window)
    spikes = np.zeros((2, stream.height, stream.width, params.t_bins),
                      dtype=np.float64)
    if len(sub):
        rel = (sub.t - window.t0).astype(np.float64) / window.duration
        bins = np.minimum(
            (rel * params.t_bins).astype(np.int64), params.t_bins - 1
        )
        chan = (sub.p == 1).astype(np.int64)
        spikes[chan, sub.y, sub.x, bins] = 1.0
    return spikes


@functools.lru_cache(maxsize=16)
def _synaptic_matrix(t: int) -> np.ndarray:
    """Read-only lower-triangular Toeplitz matrix; mat[k, j] = v((k-j)*DT),
    built once per T and shared by every call."""
    taps = kernel_v(np.arange(t) * DT, TAU_S)
    lag = np.arange(t)[:, None] - np.arange(t)
    mat = np.where(lag >= 0, taps[lag], 0.0)
    mat.setflags(write=False)
    return mat


@functools.lru_cache(maxsize=16)
def _refractory_tail(t: int) -> np.ndarray:
    """Read-only (T-1, 1) column of u(k*DT) for k = 1..T-1."""
    tail = kernel_u(np.arange(1, t) * DT, TAU_R, PHI)
    tail.setflags(write=False)
    return tail[:, None]


def synaptic_filter(x: np.ndarray) -> np.ndarray:
    """Causal temporal convolution of spike trains with kernel v.

    x has time on the last axis: out[..., k] = sum_j v((k-j)*DT) * x[..., j].
    """
    return x @ _synaptic_matrix(x.shape[-1]).T


def membrane_drive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Un-thresholded drive conv(w, v * x) for every time step, with no
    spikes and no reset: (C,H,W,T) -> (O,H',W',T)."""
    batch = synaptic_filter(x).transpose(3, 0, 1, 2)  # time as batch
    y, _ = conv2d_forward(batch, w, np.zeros(w.shape[0]), UEE_STRIDE, UEE_PADDING)
    return y.transpose(1, 2, 3, 0)


def srm_layer_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Simulate one spiking layer; returns binary spikes (O,H',W',T).

    Per step: potential = weighted synaptic drive + refractory trace;
    spike where potential >= PHI; each spike adds u((k'-k)*DT) to that
    neuron's potential at all later steps k'.
    """
    # back to the conv's own contiguous (T,O,H',W') layout: a view, no copy
    psp = membrane_drive(x, w).transpose(3, 0, 1, 2)
    t = psp.shape[0]
    drive = psp.reshape(t, -1)
    u_tail = _refractory_tail(t)
    fired = np.empty(drive.shape, dtype=bool)
    refr = np.zeros_like(drive)
    for k in range(t):
        np.greater_equal(drive[k] + refr[k], PHI, out=fired[k])
        if k + 1 < t:
            cols = np.flatnonzero(fired[k])
            if cols.size:
                refr[k + 1 :, cols] += u_tail[: t - k - 1]
    return fired.astype(np.float64).reshape(psp.shape).transpose(1, 2, 3, 0)


def mean_over_time(x: np.ndarray) -> np.ndarray:
    """Average across the trailing time axis."""
    if x.shape[-1] < 1:
        raise GeometryError("need at least one time bin")
    return x.mean(axis=-1)


@dataclass
class UeeNetwork:
    """Spiking layers followed by one drive layer, each its weight array."""

    layers: list[np.ndarray]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("UEE needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.shape[0] != b.shape[1]:
                raise GeometryError("channel mismatch between SRM layers")


def uee_forward_spikes(
    spikes: np.ndarray, net: UeeNetwork, out_hw: tuple[int, int] | None = None
) -> np.ndarray:
    """Spikes from encode_events_to_spikes -> SRM layers -> drive -> time
    mean -> (C, h, w), adaptively pooled to out_hw when given."""
    x = spikes
    for w in net.layers[:-1]:
        x = srm_layer_forward(x, w)
    feat = mean_over_time(membrane_drive(x, net.layers[-1]))
    if out_hw is not None and feat.shape[1:] != tuple(out_hw):
        pooled, _ = adaptive_avgpool_forward(feat[None], out_hw)
        feat = pooled[0]
    return feat
