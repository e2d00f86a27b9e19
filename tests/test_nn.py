import numpy as np
import pytest

from mcfr.errors import ConfigError, GeometryError
from mcfr.network import MCFRConfig
from mcfr.nn import (
    SGDConfig,
    SGDState,
    _im2col,
    adaptive_avgpool_backward,
    adaptive_avgpool_forward,
    conv2d_backward,
    conv2d_forward,
    conv_out_dim,
    fc_backward,
    fc_forward,
    finite_diff_check,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    sgd_step,
    softmax_ce_backward,
    softmax_ce_forward,
)

from .oracles import (
    conv2d_backward_oracle,
    conv2d_oracle,
    im2col_oracle,
    maxpool_backward_oracle,
    maxpool_oracle,
)


def _conv_block_shapes():
    """(id, in_channels, out_channels, kernel) of every CFE and UER block
    at reduced and tiny scale; both branches start from 3 channels."""
    shapes = []
    for scale, cfg in (("reduced", MCFRConfig.reduced()), ("tiny", MCFRConfig.tiny())):
        for branch in ("cfe", "uer"):
            in_c = 3
            for i, block in enumerate(getattr(cfg, branch)):
                shapes.append(pytest.param(
                    in_c, block.out_channels, block.kernel, id=f"{scale}-{branch}.{i}"
                ))
                in_c = block.out_channels
    return shapes


def _pool_input_shapes():
    """(id, C, H, W, k, stride) of every pooled block's max-pool input at
    reduced and paper scale, one sample each."""
    shapes = []
    for scale, cfg in (("reduced", MCFRConfig.reduced()), ("paper", MCFRConfig())):
        for branch in ("cfe", "uer"):
            size = cfg.input_crop
            for i, block in enumerate(getattr(cfg, branch)):
                size = conv_out_dim(size, block.kernel, block.stride, block.padding)
                if block.pool:
                    shapes.append(pytest.param(
                        block.out_channels, size, size, block.pool, block.pool_stride,
                        id=f"{scale}-{branch}.{i}",
                    ))
                    size = conv_out_dim(size, block.pool, block.pool_stride, 0)
    return shapes


def _pool_input(kind, shape, rng):
    """Gaussian, ReLU-clipped (its zeros as the ReLU leaves them, -0.0 for a
    negative input), integer-rounded (many ties) or all-zero input."""
    x = rng.normal(0, 1, size=shape)
    if kind == "relu":
        return x * (x > 0)
    if kind == "ties":
        return np.round(1.5 * x)
    if kind == "zero":
        return np.zeros(shape)
    return x


def _assert_pool_matches_oracle(x, k, stride, rng):
    """y, the routed input cell and dx equal the loop oracle to the bit."""
    y, cache = maxpool_forward(x, k, stride)
    y_ref, where = maxpool_oracle(x, k, stride)
    assert y.shape == y_ref.shape
    # bit patterns, so a -0.0 where the oracle has 0.0 also fails
    assert np.array_equal(y.view(np.uint64), y_ref.view(np.uint64))
    _, arg, _, _, oh, ow = cache
    assert arg.dtype == np.uint8
    assert not any(
        isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in cache
    )
    rows = np.arange(oh)[:, None] * stride + arg // k
    cols = np.arange(ow) * stride + arg % k
    assert np.array_equal(rows, where[..., 0])
    assert np.array_equal(cols, where[..., 1])
    dy = rng.normal(0, 1, size=y.shape)
    dx = maxpool_backward(dy, cache)
    dx_ref = maxpool_backward_oracle(dy, x.shape, where)
    assert np.array_equal(dx.view(np.uint64), dx_ref.view(np.uint64))


class TestConvForward:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 3, 5, 5))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y, _ = conv2d_forward(x, w, np.zeros(3))
        assert np.allclose(y, x)

    def test_all_ones_3x3_interior(self):
        c = 1.7
        x = np.full((1, 1, 6, 6), c)
        w = np.ones((1, 1, 3, 3))
        y, _ = conv2d_forward(x, w, np.zeros(1), stride=1, pad=0)
        assert y.shape == (1, 1, 4, 4)
        assert np.allclose(y, 9.0 * c)

    def test_output_dims(self):
        x = np.zeros((1, 3, 107, 107))
        w = np.zeros((96, 3, 7, 7))
        y, _ = conv2d_forward(x, w, np.zeros(96), stride=2, pad=0)
        assert y.shape == (1, 96, 51, 51)

    def test_channel_mismatch(self):
        with pytest.raises(GeometryError):
            conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_linearity_bias_free(self):
        rng = np.random.default_rng(1)
        x1 = rng.random((1, 2, 6, 6))
        x2 = rng.random((1, 2, 6, 6))
        w = rng.random((4, 2, 3, 3))
        b = np.zeros(4)
        y1, _ = conv2d_forward(x1, w, b)
        y2, _ = conv2d_forward(x2, w, b)
        y3, _ = conv2d_forward(2.0 * x1 + 0.5 * x2, w, b)
        assert np.allclose(y3, 2.0 * y1 + 0.5 * y2, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 2), (2, 3)])
    def test_matches_np_pad_oracle(self, stride, pad):
        # contiguous input, and the time-as-batch view the event branch uses
        rng = np.random.default_rng(stride + 4 * pad)
        w = rng.normal(0, 1, size=(4, 3, 3, 3))
        b = rng.normal(0, 1, size=4)
        contiguous = rng.normal(0, 1, size=(2, 3, 9, 8))
        time_view = rng.normal(0, 1, size=(3, 9, 8, 5)).transpose(3, 0, 1, 2)
        for x in (contiguous, time_view):
            cols, oh, ow = _im2col(x, 3, 3, stride, pad)
            ref_cols, ref_oh, ref_ow = im2col_oracle(x, 3, 3, stride, pad)
            assert (oh, ow) == (ref_oh, ref_ow)
            assert np.array_equal(cols, ref_cols)
            y, _ = conv2d_forward(x, w, b, stride, pad)
            assert np.array_equal(y, conv2d_oracle(x, w, b, stride, pad))


class TestConvBackward:
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("in_c,out_c,k", _conv_block_shapes())
    def test_matches_einsum_oracle(self, in_c, out_c, k, stride, pad, n):
        # error relative to the largest oracle entry, so the check does not
        # weaken when the gradients themselves are small
        rng = np.random.default_rng(1000 * k + 10 * stride + pad + n)
        x = rng.normal(0, 1, size=(n, in_c, k + 4, k + 3))
        w = rng.normal(0, 1, size=(out_c, in_c, k, k))
        y, cache = conv2d_forward(x, w, np.zeros(out_c), stride, pad)
        dy = rng.normal(0, 1, size=y.shape)
        got = conv2d_backward(dy, cache)
        want = conv2d_backward_oracle(dy, x, w, stride, pad)
        for name, a, b in zip(("dx", "dw", "db"), got, want):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(
                a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(), err_msg=name
            )


class TestSimpleOps:
    def test_relu_values(self):
        y, _ = relu_forward(np.array([-3.0, 5.0, 0.0]))
        assert list(y) == [0.0, 5.0, 0.0]

    def test_softmax_ce_ln2(self):
        loss, _ = softmax_ce_forward(np.zeros((1, 2)), np.array([0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        loss1, _ = softmax_ce_forward(np.zeros((1, 2)), np.array([1]))
        assert loss1 == pytest.approx(np.log(2.0), rel=1e-12)

    def test_softmax_ce_nonnegative(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(0, 3, size=(64, 2))
        labels = rng.integers(0, 2, size=64)
        loss, _ = softmax_ce_forward(logits, labels)
        assert loss >= 0.0

    def test_softmax_ce_invalid_label(self):
        with pytest.raises(ValueError):
            softmax_ce_forward(np.zeros((1, 2)), np.array([2]))

    def test_maxpool_routes_large_value(self):
        x = np.zeros((1, 1, 7, 7))
        x[0, 0, 3, 4] = 9.5
        y, _ = maxpool_forward(x, k=3, stride=2)
        assert y.max() == 9.5

    def test_maxpool_shape(self):
        y, _ = maxpool_forward(np.zeros((2, 3, 51, 51)), k=3, stride=2)
        assert y.shape == (2, 3, 25, 25)

    def test_adaptive_avgpool_mean(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        y, _ = adaptive_avgpool_forward(x, (2, 2))
        assert y[0, 0, 0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))
        y1, _ = adaptive_avgpool_forward(x, (1, 1))
        assert y1[0, 0, 0, 0] == pytest.approx(x.mean())


class TestMaxPoolExact:
    @pytest.mark.parametrize("kind", ["gauss", "relu", "ties", "zero"])
    @pytest.mark.parametrize(
        "k,stride", [(1, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3)]
    )
    def test_matches_oracle(self, k, stride, kind):
        rng = np.random.default_rng(10 * k + stride)
        for shape in ((2, 3, 9, 11), (1, 2, k, k + 2 * stride), (3, 1, 13, 8)):
            _assert_pool_matches_oracle(_pool_input(kind, shape, rng), k, stride, rng)

    @pytest.mark.parametrize("c,h,w,k,stride", _pool_input_shapes())
    def test_block_shapes_match_oracle(self, c, h, w, k, stride):
        rng = np.random.default_rng(h * w + c)
        x = _pool_input("relu", (1, c, h, w), rng)
        _assert_pool_matches_oracle(x, k, stride, rng)

    def test_signed_zero_tie_keeps_first_cell(self):
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 0, 0] = -0.0
        y, _ = maxpool_forward(x, 3, 1)
        assert np.signbit(y[0, 0, 0, 0])
        x = np.full((1, 1, 3, 3), -0.0)
        x[0, 0, 0, 0] = 0.0
        y, _ = maxpool_forward(x, 3, 1)
        assert not np.signbit(y[0, 0, 0, 0])

    def test_nan_routes_to_first_nan(self):
        x = np.arange(18, dtype=np.float64).reshape(1, 2, 3, 3)
        x[0, 0, 1, 2] = np.nan
        x[0, 0, 2, 0] = np.nan
        y, cache = maxpool_forward(x, 3, 1)
        assert np.isnan(y[0, 0, 0, 0]) and y[0, 1, 0, 0] == 17.0
        assert cache[1].ravel().tolist() == [5, 8]
        dx = maxpool_backward(np.ones((1, 2, 1, 1)), cache)
        assert dx[0, 0, 1, 2] == 1.0 and dx.sum() == 2.0


class TestSGD:
    def test_zero_gradient_no_motion(self):
        params = {"w": np.ones(3)}
        cfg = SGDConfig(lr={}, default_lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(params, {"w": np.zeros(3)}, cfg, SGDState())
        assert np.array_equal(params["w"], np.ones(3))

    def test_plain_step(self):
        params = {"w": np.array([1.0])}
        cfg = SGDConfig(lr={}, default_lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(params, {"w": np.array([1.0])}, cfg, SGDState())
        assert params["w"][0] == pytest.approx(0.9)

    def test_momentum_unroll(self):
        params = {"w": np.array([0.0])}
        cfg = SGDConfig(lr={}, default_lr=0.1, momentum=0.9, weight_decay=0.0)
        state = SGDState()
        g = np.array([1.0])
        sgd_step(params, {"w": g}, cfg, state)
        first = -params["w"][0]
        sgd_step(params, {"w": g}, cfg, state)
        second = -params["w"][0] - first
        assert first == pytest.approx(0.1 * 1.0)
        assert second == pytest.approx(0.1 * (1.0 + 0.9))

    def test_per_group_rates(self):
        params = {"fc6.0.w": np.array([1.0]), "fc4.w": np.array([1.0])}
        grads = {k: np.array([1.0]) for k in params}
        cfg = SGDConfig(
            lr={"fc6": 1e-3, "fc4": 1e-4}, momentum=0.0, weight_decay=0.0
        )
        sgd_step(params, grads, cfg, SGDState())
        assert params["fc6.0.w"][0] == pytest.approx(1.0 - 1e-3)
        assert params["fc4.w"][0] == pytest.approx(1.0 - 1e-4)

    @pytest.mark.parametrize("kwargs", [
        dict(default_lr=float("nan")),
        dict(default_lr=-1e-4),
        dict(lr={"fc6": float("inf")}),
        dict(momentum=float("inf")),
        dict(momentum=-0.9),
        dict(weight_decay=float("nan")),
        dict(weight_decay="5e-4"),
    ], ids=repr)
    def test_rejects_rates_that_are_not_finite_and_non_negative(self, kwargs):
        # any of these turns every parameter the step reaches into NaN
        with pytest.raises(ConfigError, match="must be finite and >= 0"):
            SGDConfig(**{"lr": {}, **kwargs})

    def test_accepts_zero_and_numpy_scalars(self):
        cfg = SGDConfig(lr={"fc6": np.float64(1e-3)}, default_lr=0,
                        momentum=np.float32(0.5), weight_decay=0.0)
        assert cfg.rate_for("fc6.0.w") == 1e-3


def conv_gradcheck(seed, stride=1, pad=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=(2, 3, 8, 8))
    w = rng.normal(0, 0.5, size=(4, 3, 3, 3))
    b = rng.normal(0, 0.5, size=4)
    target = rng.normal(0, 1, size=conv2d_forward(x, w, b, stride, pad)[0].shape)

    def loss_fn():
        y, _ = conv2d_forward(x, w, b, stride, pad)
        return float(np.sum(y * target))

    y, cache = conv2d_forward(x, w, b, stride, pad)
    dx, dw, db = conv2d_backward(target, cache)
    return finite_diff_check(
        loss_fn,
        {"x": x, "w": w, "b": b},
        {"x": dx, "w": dw, "b": db},
        tolerance=1e-6,
        rng=rng,
    )


class TestGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_conv_backward_matches_fd(self, seed):
        report = conv_gradcheck(seed, stride=2 if seed % 2 else 1, pad=seed % 3)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("seed", range(20))
    def test_fc_softmax_composition(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(0, 1, size=(6, 10))
        w = rng.normal(0, 0.3, size=(2, 10))
        b = rng.normal(0, 0.1, size=2)
        labels = rng.integers(0, 2, size=6)

        def loss_fn():
            logits, _ = fc_forward(x, w, b)
            loss, _ = softmax_ce_forward(logits, labels)
            return loss

        logits, cache = fc_forward(x, w, b)
        loss, ce_cache = softmax_ce_forward(logits, labels)
        dlogits = softmax_ce_backward(ce_cache)
        dx, dw, db = fc_backward(dlogits, cache, w)
        report = finite_diff_check(
            loss_fn,
            {"x": x, "w": w, "b": b},
            {"x": dx, "w": dw, "b": db},
            tolerance=1e-6,
            rng=rng,
        )
        assert report.passed, report.per_param

    @pytest.mark.parametrize("seed", range(20))
    def test_maxpool_backward_matches_fd(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(0, 1, size=(2, 2, 7, 7))
        target = rng.normal(0, 1, size=maxpool_forward(x, 3, 2)[0].shape)

        def loss_fn():
            y, _ = maxpool_forward(x, 3, 2)
            return float(np.sum(y * target))

        y, cache = maxpool_forward(x, 3, 2)
        dx = maxpool_backward(target, cache)
        report = finite_diff_check(
            loss_fn, {"x": x}, {"x": dx}, tolerance=1e-6, rng=rng
        )
        assert report.passed, report.per_param

    @pytest.mark.parametrize("seed", range(20))
    def test_relu_backward_matches_fd(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = rng.normal(0, 1, size=(3, 4, 5, 5))
        target = rng.normal(0, 1, size=x.shape)

        def loss_fn():
            y, _ = relu_forward(x)
            return float(np.sum(y * target))

        y, mask = relu_forward(x)
        dx = relu_backward(target, mask)
        report = finite_diff_check(
            loss_fn, {"x": x}, {"x": dx}, tolerance=1e-6, rng=rng
        )
        assert report.passed, report.per_param

    @pytest.mark.parametrize("seed", range(20))
    def test_adaptive_avgpool_backward_matches_fd(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = rng.normal(0, 1, size=(2, 3, 9, 7))
        target = rng.normal(0, 1, size=(2, 3, 3, 3))

        def loss_fn():
            y, _ = adaptive_avgpool_forward(x, (3, 3))
            return float(np.sum(y * target))

        y, cache = adaptive_avgpool_forward(x, (3, 3))
        dx = adaptive_avgpool_backward(target, cache)
        report = finite_diff_check(
            loss_fn, {"x": x}, {"x": dx}, tolerance=1e-6, rng=rng
        )
        assert report.passed, report.per_param

    def test_checker_catches_corrupted_gradient(self):
        report = conv_gradcheck(0)
        assert report.passed
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, size=(2, 3, 8, 8))
        w = rng.normal(0, 0.5, size=(4, 3, 3, 3))
        b = rng.normal(0, 0.5, size=4)
        target = rng.normal(0, 1, size=conv2d_forward(x, w, b, 1, 1)[0].shape)

        def loss_fn():
            y, _ = conv2d_forward(x, w, b, 1, 1)
            return float(np.sum(y * target))

        y, cache = conv2d_forward(x, w, b, 1, 1)
        dx, dw, db = conv2d_backward(target, cache)
        corrupt = {"x": dx * 1.10, "w": dw * 1.10, "b": db * 1.10}
        bad = finite_diff_check(
            loss_fn, {"x": x, "w": w, "b": b}, corrupt, tolerance=1e-6, rng=rng
        )
        assert not bad.passed
        assert bad.max_rel_error > 1e-3

    def test_kink_judged_against_one_sided_derivative(self):
        # Zero input and zero bias put every ReLU pre-activation exactly on
        # 0, so the central difference in b is the mean of two slopes. The
        # linear skip term keeps the left slope away from 0.
        rng = np.random.default_rng(7)
        x = np.zeros((2, 3, 5, 5))
        w = rng.normal(0, 0.5, size=(4, 3, 1, 1))
        b = np.zeros(4)
        target = rng.normal(0, 1, size=(2, 4, 5, 5))
        skip = rng.normal(0, 1, size=(2, 4, 5, 5))

        def loss_fn():
            z, _ = conv2d_forward(x, w, b)
            y, _ = relu_forward(z)
            return float(np.sum(y * target) + np.sum(z * skip))

        z, cache = conv2d_forward(x, w, b)
        _, mask = relu_forward(z)
        _, _, db = conv2d_backward(relu_backward(target, mask) + skip, cache)
        report = finite_diff_check(
            loss_fn, {"b": b}, {"b": db}, tolerance=1e-6,
            rng=np.random.default_rng(0),
        )
        assert report.passed, report.per_param
        assert report.kinks > 0
        bad = finite_diff_check(
            loss_fn, {"b": b}, {"b": db * 1.10}, tolerance=1e-6,
            rng=np.random.default_rng(0),
        )
        assert not bad.passed
