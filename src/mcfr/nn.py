"""Dense tensor layers with hand-derived gradients.

Exactly the layer set the fusion network needs: 2-D convolution
(cross-correlation), ReLU, max pooling, adaptive average pooling, fully
connected, softmax cross-entropy, and SGD with momentum/weight decay and
per-group learning rates. Forward layers keep float32 in float32 unless a
float64 operand widens it; conv and max-pool gradients are float64. numpy
supplies storage and matmuls, the forward/backward algorithms live here.

Every backward function is validated against finite differences (see
finite_diff_check in tests/gradcheck.py): the single-layer tests pin the
agreement to 1e-6 relative error, the end-to-end network test to 1e-5.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, GeometryError, require_real


def conv_out_dim(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out <= 0:
        raise GeometryError(
            f"conv/pool output collapses: in={size}, k={k}, stride={stride}, pad={pad}"
        )
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(N,C,H,W) -> columns (N, C*kh*kw, OH*OW)."""
    n, c, h, w = x.shape
    oh = conv_out_dim(h, kh, stride, pad)
    ow = conv_out_dim(w, kw, stride, pad)
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    # windows[n, c, i, j, y, x] is x[n, c, y*stride + i, x*stride + j]
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow), (sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    cols = windows.reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(cols, x_shape, kh, kw, stride, pad, oh, ow):
    """Scatter-add columns back to (N,C,H,W); adjoint of _im2col."""
    n, c, h, w = x_shape
    dx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    blocks = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                blocks[:, :, i, j]
            )
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx


def _col_chunks(x, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int):
    """Yields (start, _im2col columns of x[start:start + step]) for as many
    samples at a time as fit in 2 MiB, which stays in cache."""
    step = max(1, (2 << 20) // (x.shape[1] * kh * kw * oh * ow * x.itemsize))
    for s in range(0, x.shape[0], step):
        yield s, _im2col(x[s : s + step], kh, kw, stride, pad)[0]


def _conv2d(x, w, b, stride, pad, pool, pool_fn):
    """conv2d's y, and the pool_fn(chunk, *pool) cache of every chunk of
    _col_chunks when pool is given: each chunk is pooled as soon as its
    gemms finish, so no unpooled output exists for the whole batch."""
    o, c, kh, kw = w.shape
    if x.shape[1] != c:
        raise GeometryError(f"conv expects {c} input channels, got {x.shape[1]}")
    oh = conv_out_dim(x.shape[2], kh, stride, pad)
    ow = conv_out_dim(x.shape[3], kw, stride, pad)
    hw = (oh, ow) if pool is None else [conv_out_dim(d, *pool, 0) for d in (oh, ow)]
    gemm = np.result_type(x, w)  # the gemm's dtype; + b then follows numpy's promotion
    y = np.empty((len(x), o, *hw), dtype=np.result_type(gemm, b))
    caches = []
    for s, cols in _col_chunks(x, kh, kw, stride, pad, oh, ow):
        # an unpooled conv's gemm writes y itself
        out = y[s : s + len(cols)].reshape(len(cols), o, -1) if pool is None else None
        part = np.matmul(w.reshape(o, -1), cols, out=out)
        part = np.add(part, b.reshape(1, o, 1), out=part if part.dtype == y.dtype else None)
        if pool is not None:
            part, cache = pool_fn(part.reshape(len(cols), o, oh, ow), *pool)
            caches.append(cache)
            y[s : s + len(cols)] = part
    return y, caches


def conv2d(x, w, b, stride: int = 1, pad: int = 0, pool=None):
    """Cross-correlation. x (N,C,H,W), w (O,C,kh,kw), b (O,) -> (N,O,OH,OW),
    max-pooled as maxpool(y, *pool) when pool = (k, stride) is given.
    np.matmul runs one gemm per sample and the pool sees one sample at a
    time, so _col_chunks changes no value."""
    return _conv2d(x, w, b, stride, pad, pool, lambda y, *ks: (maxpool(y, *ks), None))[0]


def conv2d_forward(x, w, b, stride: int = 1, pad: int = 0, pool=None):
    """(conv2d's y, cache); the cache holds x and w themselves, not their
    columns, which conv2d_backward builds again chunk by chunk, and with
    pool the maxpool_forward cache of each chunk."""
    y, pools = _conv2d(x, w, b, stride, pad, pool, maxpool_forward)
    return y, (x, w, stride, pad, pools)


def conv2d_backward(dy, cache, need_dx: bool = True):
    """Gradients (dx, dw, db) of a conv2d_forward call; dx is None without need_dx.

    Walks conv2d's chunks and builds each chunk's columns once; a pooled
    conv first routes the chunk's slice of dy through maxpool_backward.
    dw and db sum one sample at a time, in sample order, as
    dy.sum(axis=(0, 2)) does: dw one (O, P) @ (P, K) BLAS product into one
    (O, K) buffer, db one row sum. An einsum over both summed axes would
    run numpy's own loop instead of BLAS, and one batched matmul would
    allocate an (N, O, K) temporary.
    """
    x, w, stride, pad, pools = cache
    o, c, kh, kw = w.shape
    oh = conv_out_dim(x.shape[2], kh, stride, pad)
    ow = conv_out_dim(x.shape[3], kw, stride, pad)
    dw = np.zeros((o, c * kh * kw))
    db = np.zeros(o)
    dx = np.empty(x.shape) if need_dx else None
    for j, (s, cols) in enumerate(_col_chunks(x, kh, kw, stride, pad, oh, ow)):
        e = s + len(cols)
        dy2 = maxpool_backward(dy[s:e], pools[j]) if pools else dy[s:e]
        dy2 = dy2.reshape(e - s, o, oh * ow)
        for i, col in enumerate(cols):
            dw += dy2[i] @ col.T
            db += dy2[i].sum(axis=1)
        if need_dx:
            dcols = np.matmul(w.reshape(o, -1).T, dy2)
            dx[s:e] = _col2im(dcols, x[s:e].shape, kh, kw, stride, pad, oh, ow)
    return dx, dw.reshape(w.shape), db


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(dy, mask):
    return dy * mask


def maxpool(x, k: int = 3, stride: int = 2):
    """(N,C,H,W) max pooling, no padding; maxpool_forward's y, with no cache.

    The max is separable: k strided column views fold into an
    (N,C,rows,OW) buffer, then k row views of that buffer fold into y.
    Each fold passes the running max as np.maximum's second operand,
    which numpy returns when the two compare equal, so between -0.0 and
    0.0 the earlier cell's zero is kept, as np.argmax's would be.
    """
    oh = conv_out_dim(x.shape[2], k, stride, 0)
    ow = conv_out_dim(x.shape[3], k, stride, 0)
    rspan = (oh - 1) * stride + 1
    cspan = (ow - 1) * stride + 1
    rows = x[:, :, : rspan + k - 1]
    buf = rows[..., :cspan:stride].copy()
    for j in range(1, k):
        np.maximum(rows[..., j : j + cspan : stride], buf, out=buf)
    y = buf[:, :, :rspan:stride].copy()
    for i in range(1, k):
        np.maximum(buf[:, :, i : i + rspan : stride], y, out=y)
    return y


def maxpool_forward(x, k: int = 3, stride: int = 2):
    """(N,C,H,W) max pooling, no padding. Returns (maxpool(x, k, stride), cache).

    The cache routes each window's gradient to its first cell, in
    row-major order, that equals the max: np.argmax's tie rule, so a
    window of equal cells routes to its top-left cell. That cell's offset
    in the window is stored as uint8 (k <= 16), one byte per output. x
    itself is not cached: keeping it for a lazy argmax would hold one
    float64 array per pooled layer until backward and raise a training
    step's peak memory. A window holding NaN has no cell equal to its max
    and routes to its first NaN, as np.argmax does.
    """
    y = maxpool(x, k, stride)
    oh, ow = y.shape[2:]
    cells = [
        x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
        for i in range(k)
        for j in range(k)
    ]
    arg = np.zeros(y.shape, dtype=np.min_scalar_type(k * k - 1))
    todo = np.ones(y.shape, dtype=bool)
    hit = np.empty(y.shape, dtype=bool)
    for match in (np.equal, lambda cell, _y, out: np.isnan(cell, out=out)):
        for o, cell in enumerate(cells):
            match(cell, y, out=hit)
            hit &= todo
            todo ^= hit
            if o:
                arg += hit.view(np.uint8) * arg.dtype.type(o)
        if not todo.any():  # left over only where a window holds NaN
            break
    cache = (x.shape, arg, k, stride, oh, ow)
    return y, cache


def maxpool_backward(dy, cache):
    """Routes each output gradient to its cached input cell; overlapping
    windows accumulate.

    The flat target index of every output is built in place from the
    cached offsets. np.bincount then adds the weights into a zeroed
    buffer one by one in the order of the index array, exactly as
    np.add.at(dx, idx, dy) does, so each input cell sums the same terms
    in the same order and dx matches the scatter-add to the bit.
    """
    x_shape, arg, k, stride, oh, ow = cache
    n, c, h, w = x_shape
    row, col = np.divmod(arg.astype(np.intp), k)
    col += np.arange(0, ow * stride, stride)
    row += np.arange(0, oh * stride, stride)[:, None]
    row += np.arange(0, n * c * h, h).reshape(n, c, 1, 1)
    row *= w
    row += col
    del col
    dx = np.bincount(row.reshape(-1), weights=dy.reshape(-1), minlength=n * c * h * w)
    return dx.reshape(x_shape)


def adaptive_avgpool_forward(x, out_hw: tuple[int, int]):
    """Average pooling onto a fixed output grid; input partitioned into
    [floor(i*H/m), floor((i+1)*H/m)) bands per axis."""
    n, c, h, w = x.shape
    mh, mw = out_hw
    if mh > h or mw > w:
        raise GeometryError(f"adaptive pool target {out_hw} exceeds input {(h, w)}")
    y = np.empty((n, c, mh, mw), dtype=x.dtype)
    bounds_h = [(i * h // mh, (i + 1) * h // mh) for i in range(mh)]
    bounds_w = [(j * w // mw, (j + 1) * w // mw) for j in range(mw)]
    for i, (h0, h1) in enumerate(bounds_h):
        for j, (w0, w1) in enumerate(bounds_w):
            y[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    cache = (x.shape, bounds_h, bounds_w)
    return y, cache


def adaptive_avgpool_backward(dy, cache):
    x_shape, bounds_h, bounds_w = cache
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for i, (h0, h1) in enumerate(bounds_h):
        for j, (w0, w1) in enumerate(bounds_w):
            area = (h1 - h0) * (w1 - w0)
            dx[:, :, h0:h1, w0:w1] += dy[:, :, i : i + 1, j : j + 1] / area
    return dx


def fc_forward(x, w, b):
    """x (N,D), w (M,D), b (M,) -> (N,M)."""
    if x.shape[1] != w.shape[1]:
        raise GeometryError(f"fc expects {w.shape[1]} inputs, got {x.shape[1]}")
    return x @ w.T + b, x


def fc_backward(dy, cache, w):
    x = cache
    dw = dy.T @ x
    db = dy.sum(axis=0)
    dx = dy @ w
    return dx, dw, db


def softmax_ce_forward(logits, labels):
    """Mean cross-entropy. logits (N,K), labels (N,) ints in [0,K)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label outside logit range")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    return loss, (probs, labels)


def softmax_ce_backward(cache):
    probs, labels = cache
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return d / n


@dataclass(frozen=True)
class SGDConfig:
    """Learning rate per parameter group; groups are name prefixes. Frozen,
    with lr copied read-only, so the checks below hold for every step."""

    lr: Mapping[str, float]
    default_lr: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        if not (isinstance(self.lr, Mapping)
                and all(isinstance(group, str) for group in self.lr)):
            raise ConfigError(f"SGD lr must map group names to rates, got {self.lr!r}")
        object.__setattr__(self, "lr", MappingProxyType(dict(self.lr)))
        # one NaN or inf here turns every parameter it reaches into NaN
        for group, rate in self.lr.items():
            require_real(f"SGD lr[{group!r}]", rate, 0)
        for name in ("default_lr", "momentum", "weight_decay"):
            require_real(f"SGD {name}", getattr(self, name), 0)

    def rate_for(self, name: str) -> float:
        for prefix, rate in self.lr.items():
            if name == prefix or name.startswith(prefix + "."):
                return rate
        return self.default_lr


@dataclass
class SGDState:
    velocity: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    cfg: SGDConfig,
    state: SGDState,
) -> None:
    """In-place update p <- p - lr*(momentum-buffered grad + wd*p)."""
    for name, g in grads.items():
        p = params[name]
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            state.velocity[name] = v
        v *= cfg.momentum
        v += g
        p -= cfg.rate_for(name) * (v + cfg.weight_decay * p)
