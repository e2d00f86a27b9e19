"""Spike-response-model layers for the event branch.

Discrete-time simulation of SRM neurons: incoming binary spike trains are
filtered by the synaptic kernel v, weighted by a spatial convolution, and
summed with the refractory trace left by the neuron's own past spikes
(kernel u, which starts at -2*phi and relaxes to 0). A neuron fires when
its potential reaches the threshold phi; the refractory contribution of a
spike at step k is felt at steps strictly after k.

The final layer of the event extractor emits its membrane drive without
thresholding; averaging that drive over time gives the branch's feature
map. Weights here are fixed after random initialization (no gradients
flow into this branch).

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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError
from .events import EventStream, TimeWindow, slice_window
from .nn import adaptive_avgpool_forward, conv2d_forward


@dataclass(frozen=True)
class SRMParams:
    """Kernel time constants (ms), threshold, and simulation grid."""

    tau_s: float = 5.0
    tau_r: float = 5.0
    phi: float = 1.0
    dt: float = 1.0
    t_bins: int = 32

    def __post_init__(self):
        if min(self.tau_s, self.tau_r, self.phi, self.dt) <= 0:
            raise ConfigError("SRM parameters must be positive")
        if self.t_bins < 1:
            raise ConfigError("t_bins must be >= 1")
        if self.dt > self.tau_s / 4.0:
            raise ConfigError("dt must be <= tau_s/4 for sampling adequacy")


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


@dataclass
class SRMConvLayer:
    """Spatial convolution weights plus SRM dynamics parameters."""

    weights: np.ndarray  # (out_ch, in_ch, kh, kw)
    stride: int
    padding: int
    params: SRMParams

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ConfigError("SRM conv weights must be 4-D")
        if self.weights.shape[2] % 2 == 0 or self.weights.shape[3] % 2 == 0:
            raise ConfigError("kernel sizes must be odd")
        if not np.all(np.isfinite(self.weights)):
            raise ConfigError("non-finite SRM weights")


@functools.lru_cache(maxsize=16)
def _synaptic_matrix(t: int, params: SRMParams) -> np.ndarray:
    """Read-only lower-triangular Toeplitz matrix; mat[k, j] = v((k-j)*dt).

    It depends only on (T, params), and SRMParams is frozen, so every
    call with the same pair shares one array.
    """
    taps = kernel_v(np.arange(t) * params.dt, params.tau_s)
    lag = np.arange(t)[:, None] - np.arange(t)
    mat = np.where(lag >= 0, taps[lag], 0.0)
    mat.setflags(write=False)
    return mat


@functools.lru_cache(maxsize=16)
def _refractory_tail(t: int, params: SRMParams) -> np.ndarray:
    """Read-only (T-1, 1) column of u(k*dt) for k = 1..T-1."""
    tail = kernel_u(np.arange(1, t) * params.dt, params.tau_r, params.phi)
    tail.setflags(write=False)
    return tail[:, None]


def synaptic_filter(x: np.ndarray, params: SRMParams) -> np.ndarray:
    """Causal temporal convolution of spike trains with kernel v.

    x has time on the last axis: out[..., k] = sum_j v((k-j)*dt) * x[..., j].
    """
    return x @ _synaptic_matrix(x.shape[-1], params).T


def membrane_drive(x: np.ndarray, layer: SRMConvLayer) -> np.ndarray:
    """Un-thresholded drive conv(W, v * x) for every time step, with no
    spikes and no reset: (C,H,W,T) -> (O,H',W',T)."""
    filtered = synaptic_filter(x, layer.params)
    batch = filtered.transpose(3, 0, 1, 2)  # time as batch
    zero_bias = np.zeros(layer.weights.shape[0])
    y, _ = conv2d_forward(batch, layer.weights, zero_bias, layer.stride, layer.padding)
    return y.transpose(1, 2, 3, 0)


def srm_layer_forward(x: np.ndarray, layer: SRMConvLayer) -> np.ndarray:
    """Simulate one spiking layer; returns binary spikes (O,H',W',T).

    Per step: potential = weighted synaptic drive + refractory trace;
    spike where potential >= phi; each spike adds u((k'-k)*dt) to that
    neuron's potential at all later steps k'.
    """
    p = layer.params
    # back to the conv's own contiguous (T,O,H',W') layout: a view, no copy
    psp = membrane_drive(x, layer).transpose(3, 0, 1, 2)
    t = psp.shape[0]
    drive = psp.reshape(t, -1)
    u_tail = _refractory_tail(t, p)
    fired = np.empty(drive.shape, dtype=bool)
    refr = np.zeros_like(drive)
    for k in range(t):
        np.greater_equal(drive[k] + refr[k], p.phi, out=fired[k])
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
    """Spiking layers followed by one drive layer and a geometry adapter."""

    layers: list[SRMConvLayer] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("UEE needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weights.shape[0] != b.weights.shape[1]:
                raise GeometryError("channel mismatch between SRM layers")

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {f"uee.{i}.w": l.weights for i, l in enumerate(self.layers)}


def uee_forward_spikes(
    spikes: np.ndarray, net: UeeNetwork, out_hw: tuple[int, int] | None = None
) -> np.ndarray:
    """Spikes from encode_events_to_spikes -> SRM layers -> drive -> time
    mean -> (C, h, w), adaptively pooled to out_hw when given."""
    x = spikes
    for layer in net.layers[:-1]:
        x = srm_layer_forward(x, layer)
    drive = membrane_drive(x, net.layers[-1])
    feat = mean_over_time(drive)
    if out_hw is not None and feat.shape[1:] != tuple(out_hw):
        pooled, _ = adaptive_avgpool_forward(feat[None], out_hw)
        feat = pooled[0]
    return feat


def make_uee(
    channels: tuple[int, ...],
    kernel: int,
    stride: int,
    padding: int,
    params: SRMParams,
    seed: int,
) -> UeeNetwork:
    """Random fixed-weight network; channels = (in, hidden..., out)."""
    if len(channels) < 2:
        raise ConfigError("need at least input and output channel counts")
    rng = np.random.default_rng(seed)
    layers = []
    for cin, cout in zip(channels, channels[1:]):
        std = 1.0 / math.sqrt(kernel * kernel * cin)
        w = rng.normal(0.0, std, size=(cout, cin, kernel, kernel))
        layers.append(
            SRMConvLayer(weights=w, stride=stride, padding=padding, params=params)
        )
    return UeeNetwork(layers=layers)
