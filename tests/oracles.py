"""Independent brute-force references the fast paths are checked against.

Everything here is deliberately naive: plain Python loops over events,
boxes, and frames. Keep it that way.
"""

import numpy as np


def stack_oracle(stream, window):
    """Per-pixel count and running-max timestamp via a plain event loop."""
    h, w = stream.height, stream.width
    c_pos = np.zeros((h, w), dtype=np.int64)
    c_neg = np.zeros((h, w), dtype=np.int64)
    t_pos = np.zeros((h, w), dtype=np.int64)
    t_neg = np.zeros((h, w), dtype=np.int64)
    for ev in stream:
        if not (window.t0 <= ev.t < window.t1):
            continue
        if ev.p == 1:
            c_pos[ev.y, ev.x] += 1
            t_pos[ev.y, ev.x] = max(t_pos[ev.y, ev.x], ev.t)
        else:
            c_neg[ev.y, ev.x] += 1
            t_neg[ev.y, ev.x] = max(t_neg[ev.y, ev.x], ev.t)
    return c_pos, c_neg, t_pos, t_neg


def iou_raster_oracle(a, b, scale=100):
    """IoU by rasterizing both boxes onto a fine integer grid."""
    ax0, ay0 = int(round(a.x * scale)), int(round(a.y * scale))
    ax1, ay1 = int(round((a.x + a.w) * scale)), int(round((a.y + a.h) * scale))
    bx0, by0 = int(round(b.x * scale)), int(round(b.y * scale))
    bx1, by1 = int(round((b.x + b.w) * scale)), int(round((b.y + b.h) * scale))
    x0, y0 = min(ax0, bx0), min(ay0, by0)
    x1, y1 = max(ax1, bx1), max(ay1, by1)
    grid_a = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[ay0 - y0 : ay1 - y0, ax0 - x0 : ax1 - x0] = True
    grid_b[by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] = True
    inter = np.logical_and(grid_a, grid_b).sum()
    union = np.logical_or(grid_a, grid_b).sum()
    return inter / union if union else 0.0


def ap_oracle(rounds_iou):
    """Eq.-style double loop: rounds_iou[a][b] is a list of per-frame IoU."""
    n = len(rounds_iou)
    m = len(rounds_iou[0])
    total = 0.0
    for a in range(n):
        for b in range(m):
            ious = rounds_iou[a][b]
            total += sum(ious) / len(ious)
    return total / (n * m)


def ar_oracle(rounds_iou, threshold=0.5):
    n = len(rounds_iou)
    m = len(rounds_iou[0])
    total = 0.0
    for a in range(n):
        for b in range(m):
            ious = rounds_iou[a][b]
            mean = sum(ious) / len(ious)
            total += 1.0 if mean >= threshold else 0.0
    return total / (n * m)


def random_stream(rng, n, width, height, t_max):
    from mcfr.events import EventStream

    t = np.sort(rng.integers(0, t_max, size=n))
    return EventStream(
        t,
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
        width,
        height,
    )


# -- the event branch as the seed wrote it ---------------------------------
# Loop versions of the SRM layer and the padded im2col. The library keeps
# the same arithmetic in a time-major layout; tests require equal bits.


def im2col_oracle(x, kh, kw, stride, pad):
    """(N,C,H,W) -> columns (N, C*kh*kw, OH*OW), padding with np.pad."""
    from mcfr.nn import conv_out_dim

    n, c, h, w = x.shape
    oh = conv_out_dim(h, kh, stride, pad)
    ow = conv_out_dim(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride][:, :, :oh, :ow]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def conv2d_oracle(x, w, b, stride=1, pad=0):
    """The output of conv2d_forward, built on im2col_oracle."""
    n = x.shape[0]
    o, _, kh, kw = w.shape
    cols, oh, ow = im2col_oracle(x, kh, kw, stride, pad)
    y = np.matmul(w.reshape(o, -1), cols) + b.reshape(1, o, 1)
    return y.reshape(n, o, oh, ow)


def synaptic_filter_oracle(x, params):
    """Causal filter with kernel v; the Toeplitz matrix filled row by row."""
    from mcfr.snn import kernel_v

    t = x.shape[-1]
    taps = kernel_v(np.arange(t) * params.dt, params.tau_s)
    mat = np.zeros((t, t))
    for k in range(t):
        mat[k, : k + 1] = taps[k::-1]
    return x @ mat.T


def weighted_psp_oracle(x, layer):
    """conv(W, v * x) for every time step: (C,H,W,T) -> (O,H',W',T)."""
    filtered = synaptic_filter_oracle(x, layer.params)
    batch = filtered.transpose(3, 0, 1, 2)
    zero_bias = np.zeros(layer.weights.shape[0])
    y = conv2d_oracle(batch, layer.weights, zero_bias, layer.stride, layer.padding)
    return y.transpose(1, 2, 3, 0)


def srm_layer_oracle(x, layer):
    """One spiking layer stepped on (O,H',W',T) slices; every step that
    fires adds the refractory tail to the whole remaining block."""
    from mcfr.snn import kernel_u

    p = layer.params
    psp = weighted_psp_oracle(x, layer)
    t = psp.shape[-1]
    u_tail = kernel_u(np.arange(1, t) * p.dt, p.tau_r, p.phi)
    spikes = np.zeros_like(psp)
    refr = np.zeros_like(psp)
    for k in range(t):
        potential = psp[..., k] + refr[..., k]
        fired = (potential >= p.phi).astype(np.float64)
        spikes[..., k] = fired
        remaining = t - k - 1
        if remaining and fired.any():
            refr[..., k + 1 :] += fired[..., None] * u_tail[:remaining]
    return spikes


def uee_forward_spikes_oracle(spikes, net, out_hw=None):
    """Spiking layers, read-out drive, time mean, adaptive pool."""
    from mcfr.nn import adaptive_avgpool_forward

    x = spikes
    for layer in net.layers[:-1]:
        x = srm_layer_oracle(x, layer)
    feat = weighted_psp_oracle(x, net.layers[-1]).mean(axis=-1)
    if out_hw is not None and feat.shape[1:] != tuple(out_hw):
        pooled, _ = adaptive_avgpool_forward(feat[None], out_hw)
        feat = pooled[0]
    return feat


# -- conv backward ---------------------------------------------------------
# dw by the seed's einsum, dx by a loop over kernel offsets. The library
# sums dw with one BLAS product per sample, so tests compare to a relative
# tolerance, not bits.


def conv2d_backward_oracle(dy, x, w, stride=1, pad=0):
    """(dx, dw, db) of conv2d_forward(x, w, b, stride, pad) for output
    gradient dy. dw is one einsum over samples and positions; dx scatters
    each kernel offset's contribution into a padded buffer."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    cols, oh, ow = im2col_oracle(x, kh, kw, stride, pad)
    dy2 = dy.reshape(n, o, oh * ow)
    dw = np.einsum("nop,nkp->ok", dy2, cols).reshape(w.shape)
    db = dy2.sum(axis=(0, 2))
    dxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            ys = slice(i, i + stride * oh, stride)
            xs = slice(j, j + stride * ow, stride)
            dxp[:, :, ys, xs] += np.einsum("oc,nopq->ncpq", w[:, :, i, j], dy)
    dx = dxp[:, :, pad : pad + h, pad : pad + wd]
    return dx, dw, db
