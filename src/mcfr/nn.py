"""Dense tensor layers with hand-derived gradients.

Exactly the layer set the fusion network needs: 2-D convolution
(cross-correlation), ReLU, max pooling, adaptive average pooling, fully
connected, softmax cross-entropy, and SGD with momentum/weight decay and
per-group learning rates. All math is float64; numpy supplies storage and
matmuls, the forward/backward algorithms live here.

Every backward function is validated against finite differences (see
finite_diff_check): the single-layer tests pin the agreement to 1e-6
relative error, the end-to-end network test to 1e-5.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, GeometryError


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
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride][:, :, :oh, :ow]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
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


def conv2d_forward(x, w, b, stride: int = 1, pad: int = 0):
    """Cross-correlation. x (N,C,H,W), w (O,C,kh,kw), b (O,) -> (N,O,OH,OW).

    Returns (y, cache) where the cache feeds conv2d_backward.
    """
    n = x.shape[0]
    o, c, kh, kw = w.shape
    if x.shape[1] != c:
        raise GeometryError(f"conv expects {c} input channels, got {x.shape[1]}")
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    y = np.matmul(w.reshape(o, -1), cols) + b.reshape(1, o, 1)
    cache = (x.shape, cols, w, stride, pad, oh, ow)
    return y.reshape(n, o, oh, ow), cache


def conv2d_backward(dy, cache):
    """Gradients (dx, dw, db) of a conv2d_forward call.

    dw is summed as one (O, P) @ (P, K) BLAS product per sample into a
    single (O, K) buffer. An einsum over the two summed axes (sample and
    position) runs numpy's own loop instead of BLAS, and one batched
    matmul would allocate an (N, O, K) temporary before the sum.
    """
    x_shape, cols, w, stride, pad, oh, ow = cache
    n = x_shape[0]
    o, c, kh, kw = w.shape
    dy2 = dy.reshape(n, o, oh * ow)
    dw = np.zeros((o, c * kh * kw))
    for i in range(n):
        dw += dy2[i] @ cols[i].T
    dw = dw.reshape(w.shape)
    db = dy2.sum(axis=(0, 2))
    dcols = np.matmul(w.reshape(o, -1).T, dy2)
    dx = _col2im(dcols, x_shape, kh, kw, stride, pad, oh, ow)
    return dx, dw, db


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(dy, mask):
    return dy * mask


def maxpool_forward(x, k: int = 3, stride: int = 2):
    """(N,C,H,W) max pooling, no padding. Returns (y, cache).

    The max is separable: k strided column views fold into an
    (N,C,rows,OW) buffer, then k row views of that buffer fold into y.
    Each fold passes the running max as np.maximum's second operand,
    which numpy returns when the two compare equal, so between -0.0 and
    0.0 the earlier cell's zero is kept, as np.argmax's would be.

    The cache routes each window's gradient to its first cell, in
    row-major order, that equals the max: np.argmax's tie rule, so a
    window of ReLU zeros routes to its top-left cell. That cell's offset
    in the window is stored as uint8 (k <= 16), one byte per output. x
    itself is not cached: keeping it for a lazy argmax would hold one
    float64 array per pooled layer until backward and raise a training
    step's peak memory. A window holding NaN has no cell equal to its max
    and routes to its first NaN, as np.argmax does.
    """
    n, c, h, w = x.shape
    oh = conv_out_dim(h, k, stride, 0)
    ow = conv_out_dim(w, k, stride, 0)
    rspan = (oh - 1) * stride + 1
    cspan = (ow - 1) * stride + 1
    rows = x[:, :, : rspan + k - 1]
    buf = rows[..., :cspan:stride].copy()
    for j in range(1, k):
        np.maximum(rows[..., j : j + cspan : stride], buf, out=buf)
    y = buf[:, :, :rspan:stride].copy()
    for i in range(1, k):
        np.maximum(buf[:, :, i : i + rspan : stride], y, out=y)
    del buf

    cells = [
        x[:, :, i : i + rspan : stride, j : j + cspan : stride]
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
    y = np.empty((n, c, mh, mw))
    bounds_h = [(i * h // mh, (i + 1) * h // mh) for i in range(mh)]
    bounds_w = [(j * w // mw, (j + 1) * w // mw) for j in range(mw)]
    for i, (h0, h1) in enumerate(bounds_h):
        for j, (w0, w1) in enumerate(bounds_w):
            y[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    cache = (x.shape, bounds_h, bounds_w)
    return y, cache


def adaptive_avgpool_backward(dy, cache):
    x_shape, bounds_h, bounds_w = cache
    dx = np.zeros(x_shape)
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


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_ce_forward(logits, labels):
    """Mean cross-entropy. logits (N,K), labels (N,) ints in [0,K)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label outside logit range")
    probs = softmax(logits)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    return loss, (probs, labels)


def softmax_ce_backward(cache):
    probs, labels = cache
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return d / n


@dataclass
class SGDConfig:
    """Learning rate per parameter group; groups are name prefixes."""

    lr: dict[str, float]
    default_lr: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        # one NaN or inf here turns every parameter it reaches into NaN
        for name, v in [*((f"lr[{k!r}]", v) for k, v in self.lr.items()),
                        ("default_lr", self.default_lr),
                        ("momentum", self.momentum), ("weight_decay", self.weight_decay)]:
            if not (isinstance(v, numbers.Real) and 0 <= v < math.inf):
                raise ConfigError(f"SGD {name} must be finite and >= 0, got {v!r}")

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


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    per_param: dict[str, float]
    checked: int
    kinks: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _loss_at(
    loss_fn: Callable[[], float], flat_p: np.ndarray, i: int, step: float
) -> float:
    orig = flat_p[i]
    flat_p[i] = orig + step
    try:
        return loss_fn()
    finally:
        flat_p[i] = orig


def finite_diff_check(
    loss_fn: Callable[[], float],
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    *,
    h: float = 1e-5,
    tolerance: float = 1e-6,
    coords_per_param: int = 4,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients to central finite differences.

    loss_fn re-evaluates the scalar loss from the (temporarily perturbed)
    params. Relative error uses max(|analytic|, |numeric|, 1) as the
    denominator so near-zero gradients are compared absolutely.

    A coordinate whose central difference disagrees with the analytic
    value is probed again with second-order one-sided differences, at
    (x, x+h, x+2h) and (x, x-h, x-2h). If those two disagree by more than
    the tolerance, the coordinate sits on a kink, such as a ReLU whose
    pre-activation is exactly 0, where the central difference is the mean
    of two different slopes. There the analytic value must match one of
    the one-sided derivatives within the tolerance; every such coordinate
    is counted in the report's ``kinks``. Elsewhere the central-difference
    error stands.
    """
    rng = rng or np.random.default_rng(0)
    per_param: dict[str, float] = {}
    checked = 0
    kinks = 0
    base = None
    for name, grad in analytic.items():
        p = params[name]
        flat_p = p.reshape(-1)
        flat_g = grad.reshape(-1)
        k = min(coords_per_param, flat_p.size)
        idx = rng.choice(flat_p.size, size=k, replace=False)
        worst = 0.0
        for i in idx:
            up = _loss_at(loss_fn, flat_p, i, h)
            down = _loss_at(loss_fn, flat_p, i, -h)
            a = flat_g[i]
            err = _rel_error(a, (up - down) / (2.0 * h))
            if err >= tolerance:
                if base is None:
                    base = loss_fn()
                up2 = _loss_at(loss_fn, flat_p, i, 2.0 * h)
                down2 = _loss_at(loss_fn, flat_p, i, -2.0 * h)
                right = (4.0 * up - 3.0 * base - up2) / (2.0 * h)
                left = (3.0 * base - 4.0 * down + down2) / (2.0 * h)
                if _rel_error(left, right) > tolerance:
                    kinks += 1
                    err = min(_rel_error(a, left), _rel_error(a, right))
            worst = max(worst, err)
            checked += 1
        per_param[name] = worst
    max_err = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(
        max_rel_error=max_err,
        tolerance=tolerance,
        per_param=per_param,
        checked=checked,
        kinks=kinks,
    )
