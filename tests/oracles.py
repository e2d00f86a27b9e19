"""Independent brute-force references the fast paths are checked against.

Everything here is deliberately naive: plain Python loops over events,
boxes, frames and layer cells, or the seed's own code kept as it was
written. Keep it that way.
"""

import math

import numpy as np


def stack_oracle(stream, window):
    """Per-pixel count and running-max timestamp via a plain event loop."""
    h, w = stream.height, stream.width
    c_pos = np.zeros((h, w), dtype=np.int64)
    c_neg = np.zeros((h, w), dtype=np.int64)
    t_pos = np.zeros((h, w), dtype=np.int64)
    t_neg = np.zeros((h, w), dtype=np.int64)
    columns = (stream.x, stream.y, stream.t, stream.p)
    for x, y, t, p in zip(*(c.tolist() for c in columns)):
        if not (window.t0 <= t < window.t1):
            continue
        if p == 1:
            c_pos[y, x] += 1
            t_pos[y, x] = max(t_pos[y, x], t)
        else:
            c_neg[y, x] += 1
            t_neg[y, x] = max(t_neg[y, x], t)
    return c_pos, c_neg, t_pos, t_neg


def frames_to_events_oracle(fs, cfg, seed=0):
    """The threshold-crossing camera one pixel and one crossing at a time.

    The log frames and the threshold noise come from the library's own numpy
    calls, so the loops below start from the same doubles; the rest is plain
    Python floats. Returns (t, x, y, p) lists, each frame pair's events
    sorted by (t, y, x, p).
    """
    from mcfr.frames import to_luminance

    rng = np.random.default_rng(seed)
    n_pix, w = fs.height * fs.width, fs.width
    c_pos, c_neg = [cfg.c_pos] * n_pix, [cfg.c_neg] * n_pix
    if cfg.threshold_noise_std > 0:
        # the library draws the c_pos jitter first and clamps at 0.01
        c_pos = [max(c + v, 0.01) for c, v in
                 zip(c_pos, rng.normal(0.0, cfg.threshold_noise_std, n_pix).tolist())]
        c_neg = [max(c + v, 0.01) for c, v in
                 zip(c_neg, rng.normal(0.0, cfg.threshold_noise_std, n_pix).tolist())]
    logs = [np.log(to_luminance(f) + cfg.log_eps).ravel().tolist() for f in fs.frames]
    ref = list(logs[0])
    events = []
    for i in range(len(fs) - 1):
        ta, tb = fs.timestamps[i], fs.timestamps[i + 1]
        l0, l1 = logs[i], logs[i + 1]
        pair = []
        for j in range(n_pix):
            d = l1[j] - ref[j]
            if d > 0:
                sign, thr, n = 1, c_pos[j], math.floor(d / c_pos[j] + 1e-9)
            else:
                sign, thr, n = -1, c_neg[j], math.floor(-d / c_neg[j] + 1e-9)
            for k in range(n):
                # the k-th crossing sits k+1 thresholds past the reference
                gap = sign * ((k + 1) * thr) + (ref[j] - l0[j])
                span = l1[j] - l0[j]
                frac = 1.0 if span == 0 else min(max(gap / span, 0.0), 1.0)
                # rounded as an offset from ta, then added exactly
                t = ta + min(max(round(frac * (tb - ta)), 0), tb - 1 - ta)
                pair.append((t, j // w, j % w, sign))
            ref[j] = ref[j] + sign * (n * thr)
        events += sorted(pair)
    t, y, x, p = (list(col) for col in zip(*events)) if events else ([],) * 4
    return t, x, y, p


def perturb_exposure_oracle(fs, cfg, seed=0):
    """perturb_exposure's frames with the gain range picked by the seed's
    three-way branch."""
    rng = np.random.default_rng(seed)
    out = []
    for frame in fs.frames:
        if cfg.mode == "under":
            lo, hi = cfg.gain_range_under
        elif cfg.mode == "over":
            lo, hi = cfg.gain_range_over
        else:
            lo, hi = (
                cfg.gain_range_under if rng.random() < 0.5 else cfg.gain_range_over
            )
        gain = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        out.append(np.clip(np.rint(frame.astype(np.float64) * gain), 0, 255).astype(np.uint8))
    return out


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


def save_events_oracle(stream, path) -> None:
    """events.save_events as the seed wrote it: one f-string per event."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# t_us,x,y,p\n")
        fh.write(f"# {stream.width},{stream.height}\n")
        cols = [c.tolist() for c in (stream.t, stream.x, stream.y, stream.p)]
        fh.writelines(f"{t},{x},{y},{p}\n" for t, x, y, p in zip(*cols))


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


def synaptic_filter_oracle(x):
    """Causal filter with kernel v; the Toeplitz matrix filled row by row."""
    from mcfr.snn import DT, kernel_v

    t = x.shape[-1]
    taps = kernel_v(np.arange(t) * DT)
    mat = np.zeros((t, t))
    for k in range(t):
        mat[k, : k + 1] = taps[k::-1]
    return x @ mat.T


def weighted_psp_oracle(x, w):
    """conv(w, v * x) for every time step: (C,H,W,T) -> (O,H',W',T)."""
    from mcfr.snn import UEE_PADDING, UEE_STRIDE

    batch = synaptic_filter_oracle(x).transpose(3, 0, 1, 2)
    y = conv2d_oracle(batch, w, np.zeros(w.shape[0]), UEE_STRIDE, UEE_PADDING)
    return y.transpose(1, 2, 3, 0)


def srm_layer_oracle(x, w):
    """One spiking layer stepped on (O,H',W',T) slices; every step that
    fires adds the refractory tail to the whole remaining block."""
    from mcfr.snn import DT, PHI, kernel_u

    psp = weighted_psp_oracle(x, w)
    t = psp.shape[-1]
    u_tail = kernel_u(np.arange(1, t) * DT)
    spikes = np.zeros_like(psp)
    refr = np.zeros_like(psp)
    for k in range(t):
        potential = psp[..., k] + refr[..., k]
        fired = (potential >= PHI).astype(np.float64)
        spikes[..., k] = fired
        remaining = t - k - 1
        if remaining and fired.any():
            refr[..., k + 1 :] += fired[..., None] * u_tail[:remaining]
    return spikes


def uee_forward_spikes_oracle(spikes, net, out_hw=None):
    """Spiking layers, read-out drive, time mean, adaptive pool."""
    from mcfr.nn import adaptive_avgpool_forward

    x = spikes
    for w in net.layers[:-1]:
        x = srm_layer_oracle(x, w)
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


def conv2d_backward_batch_oracle(dy, x, w, stride=1, pad=0):
    """conv2d_backward as the library ran it when conv2d_forward cached the
    columns of the whole batch: one im2col, one BLAS product per sample
    summed into dw in sample order, one batched matmul for the column
    gradients and one scatter-add over kernel offsets. The chunked
    library must match it to the bit."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    cols, oh, ow = im2col_oracle(x, kh, kw, stride, pad)
    dy2 = dy.reshape(n, o, oh * ow)
    dw = np.zeros((o, c * kh * kw))
    for i in range(n):
        dw += dy2[i] @ cols[i].T
    blocks = np.matmul(w.reshape(o, -1).T, dy2).reshape(n, c, kh, kw, oh, ow)
    dxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            ys = slice(i, i + stride * oh, stride)
            xs = slice(j, j + stride * ow, stride)
            dxp[:, :, ys, xs] += blocks[:, :, i, j]
    dx = dxp[:, :, pad : pad + h, pad : pad + wd]
    return dx, dw.reshape(w.shape), dy2.sum(axis=(0, 2))


# -- model initialisation and the full backward pass ------------------------


def initialize_oracle(config, seed=0):
    """The parameters as the seed's MCFRModel.initialize drew them, one
    named draw after another; the frozen event-branch weights come last,
    from a second generator."""
    rng = np.random.default_rng(seed)
    p = {}

    def conv_init(name, out_c, in_c, k):
        fan = in_c * k * k
        p[f"{name}.w"] = rng.normal(0.0, np.sqrt(2.0 / fan), (out_c, in_c, k, k))
        p[f"{name}.b"] = np.zeros(out_c)

    conv_init("tau", 3, 7, 1)
    in_c = 3
    for i, block in enumerate(config.cfe):
        conv_init(f"cfe.{i}", block.out_channels, in_c, block.kernel)
        in_c = block.out_channels
    in_c = 3
    for i, block in enumerate(config.uer):
        conv_init(f"uer.{i}", block.out_channels, in_c, block.kernel)
        in_c = block.out_channels
    conv_init("fusion", config.fusion_channels, config.fusion_in_channels, 1)

    d0, d1 = config.fc_dims
    p["fc4.w"] = rng.normal(0.0, np.sqrt(2.0 / config.fc_in_dim), (d0, config.fc_in_dim))
    p["fc4.b"] = np.zeros(d0)
    p["fc5.w"] = rng.normal(0.0, np.sqrt(2.0 / d0), (d1, d0))
    p["fc5.b"] = np.zeros(d1)
    for k in range(config.num_domains):
        p[f"fc6.{k}.w"] = rng.normal(0.0, 0.001, (2, d1))
        p[f"fc6.{k}.b"] = np.zeros(2)

    if config.ablation.use_uee:
        uee_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
        channels = (2, *config.uee.channels)  # the 2 polarity channels first
        for i, (cin, cout) in enumerate(zip(channels, channels[1:])):
            std = 1.0 / np.sqrt(3 * 3 * cin)  # 3x3 kernels
            p[f"uee.{i}.w"] = uee_rng.normal(0.0, std, (cout, cin, 3, 3))
    return p


def maxpool_oracle(x, k, stride):
    """(y, argmax cell of each window) by a loop over output cells; ties go
    to the first cell in row-major order."""
    n, c, h, w = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    y = np.empty((n, c, oh, ow))
    where = np.empty((n, c, oh, ow, 2), dtype=np.int64)
    for a in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    win = x[a, ch, i * stride : i * stride + k, j * stride : j * stride + k]
                    r, s = divmod(int(np.argmax(win)), k)
                    y[a, ch, i, j] = win[r, s]
                    where[a, ch, i, j] = (i * stride + r, j * stride + s)
    return y, where


def maxpool_backward_oracle(dy, x_shape, where):
    dx = np.zeros(x_shape)
    for idx in np.ndindex(*dy.shape):
        r, s = where[idx]
        dx[idx[0], idx[1], r, s] += dy[idx]
    return dx


def _bands(size, m):
    return [(i * size // m, (i + 1) * size // m) for i in range(m)]


def adaptive_avgpool_oracle(x, out_hw):
    n, c, h, w = x.shape
    y = np.empty((n, c) + tuple(out_hw))
    for i, (h0, h1) in enumerate(_bands(h, out_hw[0])):
        for j, (w0, w1) in enumerate(_bands(w, out_hw[1])):
            for a in range(n):
                for ch in range(c):
                    y[a, ch, i, j] = x[a, ch, h0:h1, w0:w1].mean()
    return y


def adaptive_avgpool_backward_oracle(dy, x_shape):
    dx = np.zeros(x_shape)
    h, w = x_shape[2:]
    for i, (h0, h1) in enumerate(_bands(h, dy.shape[2])):
        for j, (w0, w1) in enumerate(_bands(w, dy.shape[3])):
            area = (h1 - h0) * (w1 - w0)
            for a in range(dy.shape[0]):
                for ch in range(dy.shape[1]):
                    dx[a, ch, h0:h1, w0:w1] += dy[a, ch, i, j] / area
    return dx


def fc_oracle(x, w, b):
    return np.array([w @ row + b for row in x])


def fc_backward_oracle(dy, x, w):
    """(dx, dw, db), summing one outer product per sample."""
    dw = np.zeros(w.shape)
    for d, row in zip(dy, x):
        dw += np.outer(d, row)
    dx = np.array([w.T @ d for d in dy])
    return dx, dw, dy.sum(axis=0)


def network_backward_oracle(model, assembled, uee_feat, domain, dlogits):
    """Every gradient network.backward returns for forward(model, assembled,
    uee_feat, domain) and the logit gradient dlogits, from the oracle layers
    above: the forward pass is redone and every cache kept by hand."""
    cfg, p = model.config, model.params
    grads = {}

    def relu(z):
        return z * (z > 0)

    def blocks_forward(x, blocks, prefix):
        trail = []
        for i, spec in enumerate(blocks):
            pre = conv2d_oracle(x, p[f"{prefix}.{i}.w"], p[f"{prefix}.{i}.b"],
                                spec.stride, spec.padding)
            y, where = relu(pre), None
            if spec.pool:
                y, where = maxpool_oracle(y, spec.pool, spec.pool_stride)
            trail.append((x, pre, where))
            x = y
        return x, trail

    def blocks_backward(dy, blocks, prefix, trail):
        for i in reversed(range(len(blocks))):
            x, pre, where = trail[i]
            spec = blocks[i]
            if where is not None:
                dy = maxpool_backward_oracle(dy, pre.shape, where)
            dy = dy * (pre > 0)
            dy, grads[f"{prefix}.{i}.w"], grads[f"{prefix}.{i}.b"] = (
                conv2d_backward_oracle(dy, x, p[f"{prefix}.{i}.w"],
                                       spec.stride, spec.padding)
            )
        return dy

    n = assembled.shape[0]
    hw = cfg.feature_hw
    pieces = []
    if cfg.ablation.use_uee:
        pieces.append(uee_feat)
    if cfg.ablation.use_cfe:
        tau_out = conv2d_oracle(assembled, p["tau.w"], p["tau.b"])
        cfe_out, cfe_trail = blocks_forward(tau_out, cfg.cfe, "cfe")
        pieces.append(cfe_out)
    if cfg.ablation.use_uer:
        uer_raw, uer_trail = blocks_forward(assembled[:, :3], cfg.uer, "uer")
        uer_out = uer_raw
        if uer_raw.shape[2:] != hw:
            uer_out = adaptive_avgpool_oracle(uer_raw, hw)
        pieces.append(uer_out)
    concat = np.concatenate(pieces, axis=1)
    fused_pre = conv2d_oracle(concat, p["fusion.w"], p["fusion.b"])
    feat = relu(fused_pre).reshape(n, -1)
    h4_pre = fc_oracle(feat, p["fc4.w"], p["fc4.b"])
    h5_pre = fc_oracle(relu(h4_pre), p["fc5.w"], p["fc5.b"])

    k = f"fc6.{domain}"
    dh5, grads[f"{k}.w"], grads[f"{k}.b"] = fc_backward_oracle(
        dlogits, relu(h5_pre), p[f"{k}.w"])
    dh4, grads["fc5.w"], grads["fc5.b"] = fc_backward_oracle(
        dh5 * (h5_pre > 0), relu(h4_pre), p["fc5.w"])
    dfeat, grads["fc4.w"], grads["fc4.b"] = fc_backward_oracle(
        dh4 * (h4_pre > 0), feat, p["fc4.w"])
    dfused = dfeat.reshape(fused_pre.shape) * (fused_pre > 0)
    dconcat, grads["fusion.w"], grads["fusion.b"] = conv2d_backward_oracle(
        dfused, concat, p["fusion.w"])
    offset = uee_feat.shape[1] if cfg.ablation.use_uee else 0
    if cfg.ablation.use_cfe:
        width = cfe_out.shape[1]
        dtau = blocks_backward(dconcat[:, offset : offset + width], cfg.cfe, "cfe",
                               cfe_trail)
        offset += width
        _, grads["tau.w"], grads["tau.b"] = conv2d_backward_oracle(
            dtau, assembled, p["tau.w"])
    if cfg.ablation.use_uer:
        dseg = dconcat[:, offset:]
        if uer_raw.shape[2:] != hw:
            dseg = adaptive_avgpool_backward_oracle(dseg, uer_raw.shape)
        blocks_backward(dseg, cfg.uer, "uer", uer_trail)
    return grads
