import math
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfr import network
from mcfr.errors import (
    MAX_SENSOR_SIDE,
    CheckpointError,
    ConfigError,
    GeometryError,
    McfrError,
    NonFiniteError,
)
from mcfr.network import (
    ABLATION_VARIANTS,
    CHECKPOINT_VERSION,
    MCFRConfig,
    MCFRModel,
    TrainBatch,
    _layers,
    _run,
    backward,
    classify_features,
    default_sgd_config,
    features_forward,
    forward,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    train_step,
)
from mcfr.nn import (
    SGDConfig,
    SGDState,
    conv2d,
    conv2d_backward,
    conv2d_forward,
    conv_out_dim,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    softmax_ce_backward,
    softmax_ce_forward,
)
from .gradcheck import finite_diff_check
from .oracles import initialize_oracle, network_backward_oracle
from .strategies import corrupted


def rand_inputs(config, n, seed=0):
    rng = np.random.default_rng(seed)
    s = config.input_crop
    assembled = rng.random((n, 7, s, s))
    uee_feat = None
    if config.ablation.use_uee:
        h, w = config.feature_hw
        uee_feat = rng.random((n, config.uee.channels[-1], h, w))
    return assembled, uee_feat


# The shared branch alone, so features_forward needs no event features.
CFE_ONLY = MCFRConfig.tiny().with_ablation("er")


def tau_output(model, x7):
    """tau's output, as the first CFE conv cached its input for backward."""
    _, cache = forward(model, x7, None, 0)
    return cache["feat"]["cfe"][1][0]  # layer 0 is tau, layer 1 the first CFE conv


def uer_output(model, rgb):
    """The UER output, adapted to feature_hw, as the fusion conv takes it."""
    return _run(rgb, _layers(model.config)["uer"], model.params)


class TestInitialize:
    @pytest.mark.parametrize("variant", ["full", "or", "no-cfe"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("scale", ["tiny", "reduced", "paper"])
    def test_matches_seed_oracle(self, scale, seed, variant):
        base = {"tiny": MCFRConfig.tiny(), "reduced": MCFRConfig.reduced(),
                "paper": MCFRConfig()}[scale]
        config = base.with_ablation(variant)
        model = MCFRModel.initialize(config, seed=seed)
        params = initialize_oracle(config, seed=seed)
        assert list(model.params) == list(params)
        for name, arr in params.items():
            assert np.array_equal(model.params[name], arr), name
        assert (model.uee is None) == ("uee.0.w" not in params)
        if model.uee is not None:
            assert len(model.uee.layers) == len(config.uee.channels)

    @pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
    def test_param_shapes_is_the_checkpoint_set(self, variant):
        config = MCFRConfig.tiny(num_domains=3).with_ablation(variant)
        arrays = MCFRModel.initialize(config, seed=0).params
        shapes = param_shapes(config)
        assert list(shapes) == list(arrays)
        assert all(arrays[k].shape == shape for k, shape in shapes.items())


class TestTau:
    def test_identity_projection(self):
        model = MCFRModel.initialize(CFE_ONLY, seed=0)
        w = np.zeros_like(model.params["tau.w"])
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        model.params["tau.w"] = w
        model.params["tau.b"][:] = 0.0
        x = np.random.default_rng(1).random((2, 7, 19, 19))
        assert np.allclose(tau_output(model, x), x[:, :3])

    def test_zero_weights(self):
        model = MCFRModel.initialize(CFE_ONLY, seed=0)
        model.params["tau.w"] = np.zeros_like(model.params["tau.w"])
        model.params["tau.b"][:] = 0.0
        x = np.random.default_rng(2).random((1, 7, 19, 19))
        assert not tau_output(model, x).any()

    def test_matches_pointwise_matrix_oracle(self):
        model = MCFRModel.initialize(CFE_ONLY, seed=3)
        rng = np.random.default_rng(4)
        x = rng.random((2, 7, 19, 19))
        y = tau_output(model, x)
        w = model.params["tau.w"][:, :, 0, 0]  # (3, 7)
        b = model.params["tau.b"]
        expect = np.empty((2, 3, 19, 19))
        for n in (0, 1):
            for i in range(19):
                for j in range(19):
                    expect[n, :, i, j] = w @ x[n, :, i, j] + b
        assert np.allclose(y, expect, atol=1e-12)


def cfe_blocks(config):
    """The CFE blocks' layers, without the tau layer in front of them."""
    return _layers(config)["cfe"][1:]


class TestBranches:
    def test_cfe_default_shape(self):
        config = MCFRConfig()
        assert config.feature_hw == (3, 3)
        model = MCFRModel.initialize(config, seed=0)
        x = np.random.default_rng(0).random((1, 3, 107, 107))
        y = _run(x, cfe_blocks(config), model.params)
        assert y.shape == (1, 512, 3, 3)

    def test_cfe_zero_input_zero_output(self):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        y = _run(np.zeros((1, 3, 19, 19)), cfe_blocks(config), model.params)
        assert not y.any()  # biases start at zero

    def test_cfe_positive_homogeneity(self):
        # zero biases make the conv+relu+pool stack positively homogeneous
        config = MCFRConfig.reduced()
        model = MCFRModel.initialize(config, seed=1)
        x = np.random.default_rng(1).standard_normal((1, 3, 75, 75))
        y1 = _run(x, cfe_blocks(config), model.params)
        y2 = _run(2.0 * x, cfe_blocks(config), model.params)
        assert np.allclose(y2, 2.0 * y1, atol=1e-9)

    def test_uer_matches_cfe_spatial(self):
        for config in (MCFRConfig(), MCFRConfig.reduced(), MCFRConfig.tiny()):
            model = MCFRModel.initialize(config, seed=0)
            s = config.input_crop
            rgb = np.random.default_rng(0).random((1, 3, s, s))
            out = uer_output(model, rgb)
            assert out.shape[2:] == config.feature_hw
            assert out.shape[1] == config.uer[-1].out_channels

    def test_uer_zero_input(self):
        model = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        assert not uer_output(model, np.zeros((1, 3, 19, 19))).any()

    def test_uer_pointwise_layers_commute_with_permutation(self):
        # blocks 2 and 3 are 1x1: shuffling spatial positions of their input
        # shuffles their output identically (tiny config has no pools)
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=5)
        rng = np.random.default_rng(6)
        x = rng.random((1, 4, 5, 5))  # after block 1: 4 channels
        perm = rng.permutation(25)

        def run_tail(inp):
            out = inp
            for i in (1, 2):
                spec = config.uer[i]
                from mcfr.nn import conv2d_forward, relu_forward

                out, _ = conv2d_forward(
                    out, model.params[f"uer.{i}.w"], model.params[f"uer.{i}.b"],
                    spec.stride, spec.padding,
                )
                out, _ = relu_forward(out)
            return out

        y = run_tail(x)
        x_perm = x.reshape(1, 4, 25)[:, :, perm].reshape(1, 4, 5, 5)
        y_perm = run_tail(x_perm)
        assert np.allclose(
            y.reshape(1, -1, 25)[:, :, perm], y_perm.reshape(1, -1, 25), atol=1e-12
        )


class TestFusion:
    def test_logits_shape(self):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, 3)
        logits, _ = forward(model, assembled, uee_feat, domain=0)
        assert logits.shape == (3, 2)

    def test_domains_differ(self):
        config = MCFRConfig.tiny(num_domains=2)
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, 2)
        l0, _ = forward(model, assembled, uee_feat, domain=0)
        l1, _ = forward(model, assembled, uee_feat, domain=1)
        assert not np.allclose(l0, l1)

    def test_invalid_domain(self):
        config = MCFRConfig.tiny(num_domains=2)
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, 1)
        with pytest.raises(ConfigError):
            forward(model, assembled, uee_feat, domain=2)

    @pytest.mark.parametrize("domain", [True, False, 0.0, 1.0, "0", None, -1])
    def test_domain_that_is_no_integer_refused(self, domain):
        # a bool or float would name a head that no table holds ("fc6.True", "fc6.0.0")
        config = MCFRConfig.tiny(num_domains=2)
        model = MCFRModel.initialize(config, seed=0)
        feat = features_forward(model, *rand_inputs(config, 1))[0]
        with pytest.raises(ConfigError, match="domain"):
            classify_features(model, feat, domain)
        batch = TrainBatch(*rand_inputs(config, 2), np.array([1, 0]))
        with pytest.raises(ConfigError, match="domain"):
            train_step(model, batch, domain, default_sgd_config(), SGDState())

    def test_numpy_integer_domain_accepted(self):
        config = MCFRConfig.tiny(num_domains=2)
        model = MCFRModel.initialize(config, seed=0)
        feat = features_forward(model, *rand_inputs(config, 1))[0]
        expect, _ = classify_features(model, feat, 1)
        for domain in (np.int64(1), np.uint8(1)):
            assert np.array_equal(classify_features(model, feat, domain)[0], expect)

    @pytest.mark.parametrize("variant", ["full", "er"])
    @pytest.mark.parametrize("shape", [(2, 7, 19, 22), (2, 7, 19, 25), (2, 7, 22, 19),
                                       (2, 6, 19, 19), (2, 7, 19, 19, 1), (7, 19, 19),
                                       (0, 7, 19, 19)])
    def test_assembled_geometry_refused(self, shape, variant):
        config = MCFRConfig.tiny().with_ablation(variant)
        model = MCFRModel.initialize(config, seed=0)
        _, uee_feat = rand_inputs(config, 2)
        x = np.zeros(shape)
        for run in (features_forward, lambda *args: forward(*args, 0)):
            with pytest.raises(GeometryError, match="assembled input"):
                run(model, x, uee_feat)

    def test_fusion_width_tracks_enabled_branches(self):
        base = MCFRConfig.tiny()
        full_width = base.fusion_in_channels
        widths = {"uee": base.uee.channels[-1], "cfe": base.cfe[-1].out_channels,
                  "uer": base.uer[-1].out_channels}
        for variant, (branches, _) in ABLATION_VARIANTS.items():
            cfg = base.with_ablation(variant)
            assert cfg.fusion_in_channels == sum(widths[b] for b in branches)
            if len(branches) < 3:
                assert cfg.fusion_in_channels < full_width

    def test_all_variants_forward(self):
        for variant in ABLATION_VARIANTS:
            config = MCFRConfig.tiny().with_ablation(variant)
            model = MCFRModel.initialize(config, seed=0)
            assembled, uee_feat = rand_inputs(config, 2, seed=1)
            logits, _ = forward(model, assembled, uee_feat, domain=0)
            assert logits.shape == (2, 2)

    @pytest.mark.parametrize("config,n", [
        *((MCFRConfig.tiny().with_ablation(v), 3) for v in sorted(ABLATION_VARIANTS)),
        # 64 crops at desk scale: the forward-only convs split the batch
        (MCFRConfig.reduced(), 64),
    ], ids=[*sorted(ABLATION_VARIANTS), "reduced-full-64"])
    def test_scoring_path_matches_forward(self, config, n):
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, n, seed=1)
        for a in (assembled, uee_feat, *model.params.values()):
            if a is not None:
                a.setflags(write=False)
        feat, cache = features_forward(model, assembled, uee_feat)
        assert cache is None
        logits, cache = forward(model, assembled, uee_feat, 0)
        want = cache["fc"]["head"][0]  # fc4's cache is its input, the features
        assert feat.dtype == want.dtype and feat.tobytes() == want.tobytes()
        scored, _ = classify_features(model, feat, 0)
        assert scored.tobytes() == logits.tobytes()

    def test_variant_fingerprints_distinct(self):
        prints = {
            variant: MCFRConfig.tiny().with_ablation(variant).canonical_json()
            for variant in ABLATION_VARIANTS
        }
        assert len(set(prints.values())) == len(prints)


# the channel groups of the assembled input each variant leaves out
DROPPED_INPUTS = {"c": slice(5, 7), "t": slice(3, 5), "oe": slice(0, 3),
                  "or": slice(3, 7)}


class TestInputAblation:
    @pytest.mark.parametrize("variant", sorted(DROPPED_INPUTS))
    def test_dropped_channels_do_not_reach_the_logits(self, variant):
        config = MCFRConfig.tiny().with_ablation(variant)
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, 2, seed=1)
        before = assembled.copy()
        logits, _ = forward(model, assembled, uee_feat, 0)
        assert np.array_equal(assembled, before)  # the caller's input is kept
        dropped = DROPPED_INPUTS[variant]
        other = assembled.copy()
        other[:, dropped] = np.random.default_rng(2).random(other[:, dropped].shape)
        again, _ = forward(model, other, uee_feat, 0)
        assert np.array_equal(logits, again)

    @pytest.mark.parametrize("variant", ["c", "t"])
    def test_differs_from_full(self, variant):
        full = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        model = MCFRModel.initialize(full.config.with_ablation(variant), seed=0)
        # same parameters: the variant changes only what reaches them
        assert all(np.array_equal(model.params[k], v) for k, v in full.params.items())
        assembled, uee_feat = rand_inputs(full.config, 2, seed=1)
        want, _ = forward(full, assembled, uee_feat, 0)
        got, _ = forward(model, assembled, uee_feat, 0)
        assert not np.allclose(got, want)


class TestTrainStep:
    def make_batch(self, config, n_pos=2, n_neg=2, seed=0):
        assembled, uee_feat = rand_inputs(config, n_pos + n_neg, seed=seed)
        labels = np.array([1] * n_pos + [0] * n_neg)
        return TrainBatch(assembled=assembled, uee_feat=uee_feat, labels=labels)

    def test_zero_lr_keeps_loss(self):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        batch = self.make_batch(config)
        cfg = replace(default_sgd_config(), lr={"fc6": 0.0}, default_lr=0.0,
                      weight_decay=0.0)
        state = SGDState()
        l1 = train_step(model, batch, 0, cfg, state)
        l2 = train_step(model, batch, 0, cfg, state)
        assert l1 == pytest.approx(l2, abs=1e-15)

    def test_empty_batch_rejected(self):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        batch = TrainBatch(
            assembled=np.zeros((0, 7, 19, 19)), uee_feat=np.zeros((0, 4, 2, 2)),
            labels=np.zeros(0, dtype=int),
        )
        with pytest.raises(ConfigError):
            train_step(model, batch, 0, default_sgd_config(), SGDState())

    @pytest.mark.parametrize("labels", [
        np.array([1, 0, 1, 0, 1, 0, 1, 0]), np.array([1, 0, 1]),
        np.array([True, False, True, False]), np.array([1.0, 0.0, 1.0, 0.0]),
        np.array([[1, 0, 1, 0]])])
    def test_labels_must_be_one_integer_per_crop(self, labels):
        config = MCFRConfig.tiny(num_domains=1)
        model = MCFRModel.initialize(config, seed=0)
        batch = self.make_batch(config)
        batch.labels = labels
        with pytest.raises(ConfigError, match="integer labels"):
            train_step(model, batch, 0, default_sgd_config(), SGDState())

    @pytest.mark.parametrize("labels", [np.array([1, 0, 2, 0]), np.array([1, -1, 1, 0]),
                                        np.array([1, 0, 1, 255], dtype=np.uint8)])
    def test_labels_outside_0_and_1_refused_before_any_forward_pass(
            self, monkeypatch, labels):
        config = MCFRConfig.tiny(num_domains=1)
        model = MCFRModel.initialize(config, seed=0)
        batch = self.make_batch(config)
        batch.labels = labels

        def no_forward(*args):
            raise AssertionError("forward ran")

        monkeypatch.setattr(network, "forward", no_forward)
        with pytest.raises(ConfigError, match="labels must be 0 or 1"):
            train_step(model, batch, 0, default_sgd_config(), SGDState())

    def test_event_features_must_have_one_row_per_crop(self):
        config = MCFRConfig.tiny(num_domains=1)
        model = MCFRModel.initialize(config, seed=0)
        batch = self.make_batch(config)
        batch.uee_feat = np.concatenate([batch.uee_feat, batch.uee_feat])
        with pytest.raises(GeometryError, match="uee_feat"):
            train_step(model, batch, 0, default_sgd_config(), SGDState())

    def test_single_sample_overfit(self):
        # An explicit overfitting optimiser: default_sgd_config() holds
        # MDNet's fine-tuning rates, which leave the loss near 0.5 here.
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        batch = self.make_batch(config, n_pos=1, n_neg=1, seed=3)
        cfg = SGDConfig(lr={}, default_lr=1e-2, momentum=0.9, weight_decay=5e-4)
        state = SGDState()
        losses = [train_step(model, batch, 0, cfg, state) for _ in range(200)]
        assert losses[-1] < 0.01
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("chunk", [0, -1, 2.0])
    def test_chunk_must_be_a_positive_integer(self, chunk):
        # with chunk=-1 the batch loop runs zero times: a loss of 0.0, no step
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        with pytest.raises(ConfigError, match="chunk must be an integer >= 1"):
            train_step(model, self.make_batch(config), 0, default_sgd_config(),
                       SGDState(), chunk=chunk)

    @pytest.mark.parametrize("chunk", [64, 1])
    def test_non_finite_refused_before_update(self, chunk):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        state = SGDState()
        train_step(model, self.make_batch(config), 0, default_sgd_config(), state)
        params = {k: v.copy() for k, v in model.params.items()}
        velocity = {k: v.copy() for k, v in state.velocity.items()}
        batch = self.make_batch(config, seed=1)
        batch.assembled[-1, 3, 5, 5] = np.nan
        with pytest.raises(NonFiniteError):
            train_step(model, batch, 0, default_sgd_config(), state, chunk=chunk)
        for k, v in params.items():
            assert np.array_equal(v, model.params[k]), k
        assert velocity.keys() == state.velocity.keys()
        for k, v in velocity.items():
            assert np.array_equal(v, state.velocity[k]), k

    def test_uee_frozen_through_training(self):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        before = [w.copy() for w in model.uee.layers]
        batch = self.make_batch(config)
        state = SGDState()
        for _ in range(5):
            train_step(model, batch, 0, default_sgd_config(), state)
        for b, w in zip(before, model.uee.layers):
            assert np.array_equal(b, w)

    def test_domain_isolation(self):
        config = MCFRConfig.tiny(num_domains=3)
        model = MCFRModel.initialize(config, seed=0)
        frozen = {
            k: v.copy() for k, v in model.params.items()
            if k.startswith(("fc6.0", "fc6.2"))
        }
        shared_before = model.params["fc4.w"].copy()
        batch = self.make_batch(config)
        train_step(model, batch, 1, default_sgd_config(), SGDState())
        for k, v in frozen.items():
            assert np.array_equal(v, model.params[k]), k
        assert not np.array_equal(shared_before, model.params["fc4.w"])
        assert not np.array_equal(
            model.params["fc6.1.w"], np.zeros_like(model.params["fc6.1.w"])
        )


class TestEndToEndGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_path_finite_diff(self, seed):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=seed)
        rng = np.random.default_rng(100 + seed)
        assembled, uee_feat = rand_inputs(config, 2, seed=200 + seed)
        labels = np.array([1, 0])

        def loss_fn():
            logits, _ = forward(model, assembled, uee_feat, 0)
            loss, _ = softmax_ce_forward(logits, labels)
            return loss

        logits, cache = forward(model, assembled, uee_feat, 0)
        loss, ce_cache = softmax_ce_forward(logits, labels)
        grads = backward(model, cache, softmax_ce_backward(ce_cache))
        report = finite_diff_check(
            loss_fn, model.params, grads, tolerance=1e-5, coords_per_param=3,
            rng=rng,
        )
        assert report.passed, f"{report.per_param} kinks={report.kinks}"

    @pytest.mark.parametrize("scale,seed,variant", [
        pytest.param("tiny", 0, "full", id="tiny-0"),
        pytest.param("tiny", 1, "full", id="tiny-1"),
        pytest.param("tiny", 2, "full", id="tiny-2"),
        # the only scale with max pools
        pytest.param("reduced", 0, "full", id="reduced-0"),
        # each way of choosing branches and splitting the fusion gradient
        *(pytest.param("tiny", 0, v, id=f"tiny-0-{v}")
          for v in ("er", "no-uee", "no-cfe", "no-uer")),
    ])
    def test_matches_layer_oracles(self, scale, seed, variant):
        # Each gradient against the oracle layers, scaled to its own largest
        # entry: finite differences divide by max(|a|, |n|, 1), which hides
        # an error in a gradient much smaller than 1.
        base = MCFRConfig.tiny() if scale == "tiny" else MCFRConfig.reduced()
        config = base.with_ablation(variant)
        model = MCFRModel.initialize(config, seed=seed)
        assembled, uee_feat = rand_inputs(config, 2, seed=200 + seed)
        logits, cache = forward(model, assembled, uee_feat, 0)
        _, ce_cache = softmax_ce_forward(logits, np.array([1, 0]))
        dlogits = softmax_ce_backward(ce_cache)
        grads = backward(model, cache, dlogits)
        expect = network_backward_oracle(model, assembled, uee_feat, 0, dlogits)
        assert grads.keys() == expect.keys()
        for name, want in expect.items():
            np.testing.assert_allclose(
                grads[name], want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
                err_msg=name,
            )


def _relu_then_pool(monkeypatch):
    """Makes the network run each pooled conv as its block ran before the
    pool moved into the conv: the unpooled conv, ReLU, then the max pool,
    through nn's separate kernels. The ("relu",) layer after it then keeps
    values, signs of zeros and masks as they are."""

    def forward(x, w, b, stride, pad, pool):
        y, cache = conv2d_forward(x, w, b, stride, pad)
        if pool is None:
            return y, cache
        y, mask = relu_forward(y)
        y, pool_cache = maxpool_forward(y, *pool)
        return y, (cache, mask, pool_cache)

    def backward(dy, cache, need_dx=True):
        if len(cache) == 3:
            cache, mask, pool_cache = cache
            dy = relu_backward(maxpool_backward(dy, pool_cache), mask)
        return conv2d_backward(dy, cache, need_dx)

    monkeypatch.setattr(network, "conv2d_forward", forward)
    monkeypatch.setattr(network, "conv2d_backward", backward)
    monkeypatch.setattr(network, "conv2d", lambda *args: forward(*args)[0])


def tie_heavy_case(config, seed=0):
    """A model with weights rounded to halves and biases of -0.5, 0 or 0.5,
    and four samples: all zero, half zero, all negative with -0.0 columns,
    and values rounded to halves; event features rounded to halves. The
    pooled conv outputs then hold exact ties, runs of equal negative
    values and windows whose max is 0. No bias is -0.0: SGD from the zero
    init never makes one."""
    rng = np.random.default_rng(seed)
    model = MCFRModel.initialize(config, seed=seed)
    for name, p in model.params.items():
        if name.endswith(".b"):
            p[...] = rng.choice([-0.5, 0.0, 0.5], p.shape)
        elif not name.startswith("uee."):
            p[...] = np.round(2 * p) / 2
    assembled, uee_feat = rand_inputs(config, 4, seed=seed)
    assembled = np.round(4 * assembled - 2) / 2
    assembled[0] = 0.0
    assembled[1, :, : config.input_crop // 2] = 0.0
    assembled[2] = -np.abs(assembled[2]) - 0.5
    assembled[2, :, :, ::3] = -0.0
    if uee_feat is not None:
        uee_feat = np.round(2 * uee_feat) / 2
    return model, assembled, uee_feat


class TestTrainingKeepsOnlyWhatBackwardNeeds:
    """Pooling inside the conv, before ReLU, no input gradient for the data
    and a backward that consumes its caches change no output: features,
    logits, every gradient, train_step losses, parameters and SGD
    velocities match conv -> ReLU -> pool to the byte, signs of zeros
    included."""

    def test_every_pool_precedes_its_relu(self):
        layers = [layer for table in _layers(MCFRConfig()).values() for layer in table]
        assert "pool" not in {layer[0] for layer in layers}
        pooled = [i for i, layer in enumerate(layers)
                  if layer[0] == "conv" and layer[5] is not None]
        assert len(pooled) == 4
        assert all(layers[i + 1] == ("relu",) for i in pooled)

    def test_inputs_pool_zeros_of_either_sign(self, monkeypatch):
        # the two orders give the first pooled block the same values but not
        # the same zeros: ReLU-then-pool keeps the first cell's -0.0 where
        # pool-then-ReLU keeps the window's max, +0.0
        config = MCFRConfig.reduced()
        model, assembled, _ = tie_heavy_case(config)
        cfe = _layers(config)["cfe"]
        assert cfe[1][5] is not None
        tau = _run(assembled, cfe[:1], model.params)
        now = _run(tau, cfe[1:3], model.params)
        _relu_then_pool(monkeypatch)
        before = _run(tau, cfe[1:3], model.params)
        assert np.array_equal(now, before)
        assert now.tobytes() != before.tobytes()

    @staticmethod
    def outputs(model, assembled, uee_feat):
        labels = np.array([1, 0, 1, 0])
        feat, _ = features_forward(model, assembled, uee_feat)
        logits, cache = forward(model, assembled, uee_feat, 0)
        _, ce_cache = softmax_ce_forward(logits, labels)
        grads = backward(model, cache, softmax_ce_backward(ce_cache))
        out = {"feat": feat, "logits": logits,
               **{f"grad {k}": g for k, g in grads.items()}}
        trained, state = model.copy(), SGDState()
        batch = TrainBatch(assembled, uee_feat, labels)
        for step in range(2):
            out[f"loss {step}"] = np.float64(
                train_step(trained, batch, 0, default_sgd_config(), state, chunk=3))
        out.update((f"param {k}", p) for k, p in trained.params.items())
        out.update((f"velocity {k}", v) for k, v in state.velocity.items())
        return out

    @pytest.mark.parametrize("scale,variant", [
        ("reduced", "full"), ("reduced", "no-cfe"), ("reduced", "oe"),
        ("reduced", "c"), ("paper", "full"),
    ])
    @pytest.mark.parametrize("tie_heavy", [True, False], ids=["ties", "random"])
    def test_matches_relu_then_pool(self, monkeypatch, scale, variant, tie_heavy):
        base = MCFRConfig.reduced() if scale == "reduced" else MCFRConfig()
        config = base.with_ablation(variant)
        if tie_heavy:
            model, assembled, uee_feat = tie_heavy_case(config)
        else:
            model = MCFRModel.initialize(config, seed=1)
            assembled, uee_feat = rand_inputs(config, 4, seed=2)
        got = self.outputs(model, assembled, uee_feat)
        _relu_then_pool(monkeypatch)
        want = self.outputs(model, assembled, uee_feat)
        assert got.keys() == want.keys()
        for name, a in want.items():
            assert got[name].dtype == a.dtype and got[name].shape == a.shape, name
            assert got[name].tobytes() == a.tobytes(), name

    def test_backward_empties_every_cache_list(self):
        config = MCFRConfig.reduced()
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, 2)
        logits, cache = forward(model, assembled, uee_feat, 0)
        lists = [*cache["feat"].values(), cache["fc"]["head"]]
        assert sum(map(len, lists)) > 20
        _, ce_cache = softmax_ce_forward(logits, np.array([1, 0]))
        backward(model, cache, softmax_ce_backward(ce_cache))
        assert all(caches == [] for caches in lists)

    @pytest.mark.parametrize("dtype", ["f8", "f4"])
    @pytest.mark.parametrize("kind", ["gauss", "ties", "signed_zeros", "nan"])
    @pytest.mark.parametrize("pool", [None, (3, 2)])
    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 0), (2, 1)])
    def test_conv_backward_without_dx(self, stride, pad, pool, kind, dtype):
        # a batch across conv2d's column chunks, as tau and uer.0 see it; a
        # pooled conv matches conv2d_forward -> maxpool_forward going forward
        # and maxpool_backward -> conv2d_backward going back, to the byte
        rng = np.random.default_rng(stride + pad)
        x = rng.normal(0, 1, size=(40, 7, 23, 23))
        w = rng.normal(0, 1, size=(5, 7, 3, 3))
        dy_scale = 1.0
        if kind in ("ties", "signed_zeros"):  # integer outputs: tied windows
            x, w = np.round(2 * x), np.round(2 * w)
        if kind == "signed_zeros":
            # every product underflows, so the gemm sums zeros whose sign it
            # may keep, and the -0.0 bias keeps it; dy holds zeros of both signs
            x, w, dy_scale = 1e-30 * x, 1e-300 * w, 0.0
        if kind == "nan":
            x[::3, 2, 5, 7] = np.nan
        x = x.astype(dtype)
        b = np.full(5, -0.0)
        y, cache = conv2d_forward(x, w, b, stride, pad, pool)
        want, conv_cache = conv2d_forward(x, w, b, stride, pad)
        if pool:
            want, pool_cache = maxpool_forward(want, *pool)
        dy = dy_scale * rng.normal(0, 1, size=y.shape)
        dconv = maxpool_backward(dy, pool_cache) if pool else dy
        got = {"y": (y,), "cache-free y": (conv2d(x, w, b, stride, pad, pool),),
               "grads": conv2d_backward(dy, cache),
               "grads without dx": conv2d_backward(dy, cache, need_dx=False)}
        expect = {"y": (want,), "cache-free y": (want,),
                  "grads": conv2d_backward(dconv, conv_cache),
                  "grads without dx": (None, *conv2d_backward(dconv, conv_cache)[1:])}
        if kind == "nan":
            assert np.isnan(want).any() and not np.isnan(want).all()
        for name, arrays in expect.items():
            for a, e in zip(got[name], arrays, strict=True):
                assert (a is None) == (e is None), name
                if e is not None:
                    assert a.dtype == e.dtype and a.tobytes() == e.tobytes(), name

    def test_features_forward_peak_memory(self):
        # 64 reduced crops, the batch a tracker scores each frame. Beside
        # tau's output, which cfe.0 reads whole, the peak leaves no room for
        # cfe.0's unpooled output over the whole batch: each pooled conv
        # pools its column chunks as it computes them
        config = MCFRConfig.reduced()
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, 64)
        s, block = config.input_crop, config.cfe[0]
        tau_bytes = 64 * 3 * s * s * 8
        oh = conv_out_dim(s, block.kernel, block.stride, block.padding)
        unpooled_bytes = 64 * block.out_channels * oh * oh * 8
        tracemalloc.start()
        try:
            features_forward(model, assembled, uee_feat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tau_bytes + unpooled_bytes

    def test_train_step_peak_memory(self):
        # 64 reduced crops, the batch of a tracker's update: the step may
        # hold at most twice the batch's own bytes beside the batch
        config = MCFRConfig.reduced()
        model = MCFRModel.initialize(config, seed=0)
        assembled, uee_feat = rand_inputs(config, 64)
        batch = TrainBatch(assembled, uee_feat, np.arange(64) % 2)
        tracemalloc.start()
        try:
            train_step(model, batch, 0, default_sgd_config(), SGDState())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (assembled.nbytes + uee_feat.nbytes)


class TestCheckpoint:
    @pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
    def test_round_trip_forward_agreement(self, tmp_path, variant):
        config = MCFRConfig.tiny(num_domains=2).with_ablation(variant)
        model = MCFRModel.initialize(config, seed=0)
        path = tmp_path / "model.mcfr"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assembled, uee_feat = rand_inputs(config, 2, seed=9)
        l1, _ = forward(model, assembled, uee_feat, 1)
        l2, _ = forward(loaded, assembled, uee_feat, 1)
        assert np.allclose(l1, l2, atol=1e-5)
        assert loaded.config == config

    def test_truncated_rejected(self, tmp_path):
        config = MCFRConfig.tiny()
        model = MCFRModel.initialize(config, seed=0)
        path = tmp_path / "model.mcfr"
        save_checkpoint(model, path)
        data = path.read_bytes()
        bad = tmp_path / "bad.mcfr"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    def test_old_version_rejected(self, tmp_path):
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
        data = path.read_bytes()
        assert data[4:6] == struct.pack("<H", CHECKPOINT_VERSION)
        for old in (1, 2, 3):
            path.write_bytes(data[:4] + struct.pack("<H", old) + data[6:])
            with pytest.raises(CheckpointError, match=f"unsupported version {old}"):
                load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mcfr"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new", [
        (b'"ablation"', b'"ablatiom"'),  # KeyError in from_dict
        (b'"geometry":"tiny"', b'"geometry":"tinx"'),  # unknown conv geometry
        (b'"cfe_widths":[4,6,8]', b'"cfe_widths":[4,6,0]'),  # zero conv width
        (b'"fc_dims":[8,8]', b'"fc_dims":[8.8]'),  # one fc width
        (b'"channels":[3,4]', b'"channels":[3.4]'),  # float width
        (b'{"ablation"', b'{"ablation\xff'),  # not UTF-8
        (b'{"ablation"', b'["ablation"'),  # not JSON
        (b'"num_domains":2', b'"num_domains":0'),  # ConfigError
    ])
    def test_corrupt_config_rejected(self, tmp_path, old, new):
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(CheckpointError, match="corrupt config"):
            load_checkpoint(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("opener", [b"[", b'{"a":'])
    def test_deeply_nested_config_rejected(self, tmp_path, opener):
        blob = opener * 100_000
        path = tmp_path / "model.mcfr"
        path.write_bytes(b"MCFR" + struct.pack("<HI", CHECKPOINT_VERSION, len(blob))
                         + blob)
        with pytest.raises(CheckpointError, match="corrupt config"):
            load_checkpoint(path)

    def test_f32_overflow_refused_before_the_file_is_opened(self, tmp_path):
        # 1e39 is finite in float64 but inf in f32: the file would not load
        model = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        model.params["fc4.w"][0, 0] = 1e39
        path = tmp_path / "model.mcfr"
        with pytest.raises(NonFiniteError, match=r"\['fc4.w'\]"):
            save_checkpoint(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
    def test_file_is_header_config_and_f32_body(self, tmp_path, variant):
        config = MCFRConfig.tiny(num_domains=2).with_ablation(variant)
        model = MCFRModel.initialize(config, seed=0)
        path = tmp_path / "model.mcfr"
        save_checkpoint(model, path)
        counts = sum(math.prod(shape) for shape in param_shapes(config).values())
        assert path.stat().st_size == 10 + len(config.canonical_json()) + 4 * counts
        loaded = load_checkpoint(path)
        for name, arr in model.params.items():
            expect = arr.astype("<f4").astype(np.float64)
            assert loaded.params[name].tobytes() == expect.tobytes(), name

    def test_extra_body_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(CheckpointError, match="parameter data"):
            load_checkpoint(path)

    def test_swapped_config_rejected_before_allocation(self, tmp_path):
        # a tiny checkpoint whose config claims paper-scale arrays: the
        # loader must refuse it without building arrays of the claimed size
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
        data = path.read_bytes()
        cfg_len = int.from_bytes(data[6:10], "little")
        blob = MCFRConfig(num_domains=2).canonical_json().encode()
        path.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob
                         + data[10 + cfg_len :])
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="parameter data"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_huge_domain_count_rejected_before_the_table(self, tmp_path):
        # the claimed domain count must not set the cost of refusing the file
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
        data = path.read_bytes()
        assert b'"num_domains":2' in data
        cfg_len = int.from_bytes(data[6:10], "little")
        blob = data[10 : 10 + cfg_len].replace(b'"num_domains":2',
                                               b'"num_domains":100000')
        path.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob
                         + data[10 + cfg_len :])
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="parameter data"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_crop_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
        data = path.read_bytes()
        cfg_len = int.from_bytes(data[6:10], "little")
        blob = MCFRConfig.tiny().canonical_json().replace(
            '"input_crop":19', f'"input_crop":{MAX_SENSOR_SIDE + 1}'
        ).encode()
        assert blob != MCFRConfig.tiny().canonical_json().encode()
        path.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob
                         + data[10 + cfg_len :])
        with pytest.raises(CheckpointError, match=f"must be an integer <= {MAX_SENSOR_SIDE}, got"):
            load_checkpoint(path)

    def test_domain_count_preserved(self, tmp_path):
        config = MCFRConfig.tiny(num_domains=3)
        model = MCFRModel.initialize(config, seed=0)
        path = tmp_path / "model.mcfr"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config.num_domains == 3
        assembled, uee_feat = rand_inputs(config, 1, seed=2)
        for k in range(3):
            logits, _ = forward(loaded, assembled, uee_feat, k)
            assert logits.shape == (1, 2)
        with pytest.raises(ConfigError):
            forward(loaded, assembled, uee_feat, 3)

    def test_single_branch_replacement(self):
        config = MCFRConfig.tiny(num_domains=3)
        model = MCFRModel.initialize(config, seed=0)
        single = model.with_single_branch(seed=1)
        assert single.config.num_domains == 1
        assert "fc6.1.w" not in single.params
        assert np.array_equal(single.params["fc4.w"], model.params["fc4.w"])
        assert list(single.params) == list(param_shapes(single.config))
        for a, b in zip(single.uee.layers, model.uee.layers):
            assert np.array_equal(a, b)
            assert a is not b

    def test_uee_given_exactly_when_the_variant_keeps_it(self):
        # otherwise save_checkpoint writes a file load_checkpoint refuses
        full = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        with pytest.raises(ConfigError, match=r"parameter set mismatch \(missing \[\], "
                           r"extra \['uee.0.w', 'uee.1.w'\]\)"):
            MCFRModel(full.config.with_ablation("no-uee"), full.params)
        no_uee = {k: v for k, v in full.params.items() if not k.startswith("uee.")}
        with pytest.raises(ConfigError, match=r"parameter set mismatch \(missing "
                           r"\['uee.0.w', 'uee.1.w'\], extra \[\]\)"):
            MCFRModel(full.config, no_uee)

    def test_constructor_checks_shapes_and_keeps_table_order(self):
        full = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        params = dict(reversed(full.params.items()))
        assert list(MCFRModel(full.config, params).params) == list(full.params)
        params["fc5.b"] = np.zeros(3)
        with pytest.raises(ConfigError,
                           match=r"shape mismatch for 'fc5.b': \(3,\) != \(8,\)"):
            MCFRModel(full.config, params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_constructor_refuses_non_finite_uee_weights(self, bad):
        full = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        params = dict(full.params)
        params["uee.0.w"] = params["uee.0.w"].copy()
        params["uee.0.w"][1, 0, 2, 2] = bad
        with pytest.raises(ConfigError, match="non-finite event-branch weights 'uee.0.w'"):
            MCFRModel(full.config, params)

    def test_uee_is_a_view_of_the_params(self):
        model = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        layers = model.uee.layers
        assert len(layers) == 2
        for i, w in enumerate(layers):
            assert w is model.params[f"uee.{i}.w"]
        no_uee = MCFRConfig.tiny().with_ablation("no-uee")
        assert MCFRModel.initialize(no_uee).uee is None

    @pytest.mark.parametrize("variant", ["full", "no-uee"])
    def test_loaded_params_follow_the_table(self, tmp_path, variant):
        config = MCFRConfig.tiny(num_domains=3).with_ablation(variant)
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(config, seed=0), path)
        assert list(load_checkpoint(path).params) == list(param_shapes(config))

    def test_copy_is_independent(self):
        model = MCFRModel.initialize(MCFRConfig.tiny(), seed=0)
        twin = model.copy()
        assert twin.config == model.config
        for name, arr in model.params.items():
            assert np.array_equal(twin.params[name], arr)
        twin.params["fc4.w"] += 1.0
        twin.uee.layers[0] += 1.0
        assert not np.array_equal(twin.params["fc4.w"], model.params["fc4.w"])
        assert not np.array_equal(twin.uee.layers[0], model.uee.layers[0])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_checkpoint_fuzz(tmp_path_factory, data):
    # truncations and byte flips of a tiny checkpoint: only McfrError leaves
    path = tmp_path_factory.mktemp("ckpt") / "model.mcfr"
    save_checkpoint(MCFRModel.initialize(MCFRConfig.tiny(), seed=0), path)
    valid = path.read_bytes()
    cfg_len = int.from_bytes(valid[6:10], "little")
    path.write_bytes(data.draw(corrupted(valid, hot=10 + cfg_len + 64)))
    try:
        load_checkpoint(path)
    except McfrError:
        pass


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        pytest.param("cfe_widths", (4, 6, 0), id="zero-width"),
        pytest.param("uer_widths", (4, -1, 6), id="negative-width"),
        pytest.param("cfe_widths", (4.0, 6, 8), id="float-width"),
        pytest.param("uer_widths", (True, 6, 6), id="bool-width"),
        pytest.param("cfe_widths", (4, 6), id="two-widths"),
        pytest.param("uer_widths", (4, 6, 6, 6), id="four-widths"),
        pytest.param("geometry", "vgg", id="unknown-geometry"),
        pytest.param("geometry", "Tiny", id="geometry-case"),
        pytest.param("geometry", ["tiny"], id="geometry-list"),
    ])
    def test_widths_and_geometry_rejected(self, field, value):
        with pytest.raises(ConfigError):
            replace(MCFRConfig.tiny(), **{field: value})

    def test_model_config_rejects(self):
        with pytest.raises(ConfigError):
            replace(MCFRConfig.tiny(), num_domains=0)
        with pytest.raises(ConfigError):
            MCFRConfig(fc_dims=(512,))
        with pytest.raises(ConfigError):
            MCFRConfig(input_crop=107.0)

    @pytest.mark.parametrize("cls,field,value", [
        (MCFRConfig, "cfe_widths", 5), (MCFRConfig, "uer_widths", "466"),
        (MCFRConfig, "fc_dims", {8: 0, 9: 0}), (MCFRConfig, "fc_dims", np.array([8, 8])),
        (network.SRMNetSpec, "channels", 4),
    ])
    def test_width_field_that_is_no_list_or_tuple_refused(self, cls, field, value):
        with pytest.raises(ConfigError, match="list or tuple"):
            cls(**{field: value})

    def test_list_widths_stored_as_tuples(self, tmp_path):
        # a config built from lists equals, and hashes as, the tuple preset
        # and its checkpoint round trip
        tiny = MCFRConfig.tiny()
        lists = replace(tiny, cfe_widths=[4, 6, 8], uer_widths=[4, 6, 6], fc_dims=[8, 8],
                        uee=network.SRMNetSpec(channels=[3, 4], t_bins=4))
        assert lists == tiny and hash(lists) == hash(tiny)
        assert lists.cfe_widths == (4, 6, 8) and lists.uee.channels == (3, 4)
        path = tmp_path / "model.mcfr"
        save_checkpoint(MCFRModel.initialize(lists, seed=0), path)
        loaded = load_checkpoint(path).config
        assert loaded == lists and hash(loaded) == hash(lists)

    @pytest.mark.parametrize("variant", [["full"], ("full",), None, 1, b"full"])
    def test_ablation_variant_that_is_no_string_refused(self, variant):
        with pytest.raises(ConfigError, match="unknown ablation variant"):
            network.AblationFlags(variant)

    @pytest.mark.parametrize("geometry,branch,crop", [
        ("tiny", "cfe", 14), ("tiny", "uer", 2),
        ("paper", "cfe", 74), ("paper", "uer", 12),
    ])
    def test_collapsing_branch_rejected(self, geometry, branch, crop):
        # a crop too small for a branch of the geometry leaves it no output
        # (14 and 74 px are one short of what the CFE needs); both branches'
        # sizes shape the layer tables, so the config is refused when built
        blocks = getattr(MCFRConfig(geometry=geometry), branch)
        with pytest.raises(GeometryError, match="collapses"):
            network._blocks_hw(crop, blocks)
        with pytest.raises(GeometryError, match="collapses"):
            MCFRConfig(input_crop=crop, geometry=geometry)

    def test_input_crop_capped_at_sensor_side(self):
        with pytest.raises(ConfigError, match=f"must be an integer <= {MAX_SENSOR_SIDE}, got"):
            MCFRConfig(input_crop=MAX_SENSOR_SIDE + 1)


def check_benchmark_walks(monkeypatch, config, n):
    """mcfrbench's check_walks on n crops of config, domain 0, with spikes
    at 30% density: at 10% the tiny UEE stays silent, and at 5% the reduced
    one outputs exactly 0, so the check would compare zeros."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "mcfrbench"))
    from layers import check_walks
    from tracer import Tracer

    model = MCFRModel.initialize(config, seed=0)
    s = config.input_crop
    rng = np.random.default_rng(1)
    spikes = (rng.random((2, s, s, config.uee.t_bins)) < 0.3).astype(float)
    assembled, uee_feat = rand_inputs(config, n, seed=2)
    return check_walks(Tracer, model, spikes, assembled, uee_feat,
                       1 - np.arange(n) % 2, 0)


@pytest.mark.parametrize("variant", ["full", "no-cfe", "no-uer"])
def test_benchmark_walks_match_the_library(monkeypatch, variant):
    # the benchmark's traced copy of the network picks its branches by the
    # AblationFlags properties; it must agree with the library bit for bit
    # on every variant that has a UEE and keeps every input group
    ok = check_benchmark_walks(monkeypatch, MCFRConfig.tiny().with_ablation(variant), 4)
    assert ok == {"uee": True, "forward": True, "train": True}


@pytest.mark.parametrize("preset", ["reduced", "paper"])
def test_benchmark_walks_match_the_library_at_scale(monkeypatch, preset):
    # the configs the benchmark checks its walks on, with its 8 crops: at
    # paper scale every pooled conv runs several column chunks
    config = {"reduced": MCFRConfig.reduced(), "paper": MCFRConfig(num_domains=4)}[preset]
    ok = check_benchmark_walks(monkeypatch, config, 8)
    assert ok == {"uee": True, "forward": True, "train": True}
