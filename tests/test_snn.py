import numpy as np
import pytest

from mcfr.errors import ConfigError
from mcfr.events import Event, EventStream, TimeWindow
from mcfr.network import MCFRConfig, MCFRModel
from mcfr.snn import (
    PHI,
    UEE_PADDING,
    UEE_STRIDE,
    SRMParams,
    UeeNetwork,
    _refractory_tail,
    _synaptic_matrix,
    encode_events_to_spikes,
    kernel_u,
    kernel_v,
    mean_over_time,
    membrane_drive,
    srm_layer_forward,
    synaptic_filter,
    uee_forward_spikes,
)

from .oracles import (
    srm_layer_oracle,
    synaptic_filter_oracle,
    uee_forward_spikes_oracle,
    weighted_psp_oracle,
)

def params(t_bins=8):
    return SRMParams(t_bins=t_bins)


def random_uee(channels, seed):
    """Random frozen layers, drawn as MCFRModel.initialize draws the event
    branch: std 1/sqrt(fan-in), one layer after another."""
    rng = np.random.default_rng(seed)
    return UeeNetwork(layers=[
        rng.normal(0.0, 1.0 / np.sqrt(9 * cin), (cout, cin, 3, 3))
        for cin, cout in zip(channels, channels[1:])
    ])


class TestKernels:
    def test_v_heaviside_gate(self):
        assert kernel_v(-1.0, 5.0) == 0.0
        assert kernel_v(-1e-9, 5.0) == 0.0

    def test_v_peak_exactly_one(self):
        assert kernel_v(5.0, 5.0) == pytest.approx(1.0, abs=1e-15)

    def test_v_at_two_tau(self):
        assert kernel_v(10.0, 5.0) == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)

    def test_u_at_zero(self):
        assert kernel_u(0.0, 5.0, 1.0) == pytest.approx(-2.0, abs=1e-15)
        assert kernel_u(0.0, 3.0, 0.7) == pytest.approx(-1.4, abs=1e-15)

    def test_u_heaviside_gate(self):
        assert kernel_u(-5.0, 5.0, 1.0) == 0.0

    def test_u_at_tau_r(self):
        assert kernel_u(5.0, 5.0, 1.0) == pytest.approx(
            -2.0 * np.exp(-1.0), abs=1e-12
        )

    def test_bounds_on_dense_grid(self):
        t = np.linspace(-10, 50, 2000)
        v = kernel_v(t, 5.0)
        u = kernel_u(t, 5.0, 1.0)
        assert np.all(v <= 1.0 + 1e-15)
        assert np.all(v[t < 0] == 0.0)
        assert np.all(u <= 0.0)
        assert np.all(u[t < 0] == 0.0)
        peak_idx = np.argmax(v)
        assert t[peak_idx] == pytest.approx(5.0, abs=0.05)


class TestSRMParams:
    @pytest.mark.parametrize("value", [8.5, 8.0, True, "8", None, 0])
    def test_rejects_t_bins_that_is_no_positive_integer(self, value):
        with pytest.raises(ConfigError, match="t_bins must be an integer >= 1"):
            params(t_bins=value)

    def test_accepts_numpy_scalars(self):
        assert params(t_bins=np.int64(4)).t_bins == 4


class TestEncode:
    def test_midpoint_event(self):
        s = EventStream.from_events([Event(2, 3, 50, 1)], 8, 8)
        spikes = encode_events_to_spikes(s, TimeWindow(0, 100), params(t_bins=8))
        assert spikes.shape == (2, 8, 8, 8)
        assert spikes.sum() == 1.0
        assert spikes[1, 3, 2, 4] == 1.0  # positive channel, bin 4

    def test_empty(self):
        spikes = encode_events_to_spikes(
            EventStream.empty(4, 4), TimeWindow(0, 100), params()
        )
        assert not spikes.any()

    def test_binary_clip_same_bin(self):
        s = EventStream.from_events(
            [Event(1, 1, 10, -1), Event(1, 1, 11, -1)], 4, 4
        )
        spikes = encode_events_to_spikes(s, TimeWindow(0, 800), params(t_bins=8))
        assert spikes[0, 1, 1, 0] == 1.0
        assert spikes.sum() == 1.0

    def test_end_of_window_clamped(self):
        s = EventStream.from_events([Event(0, 0, 99, 1)], 2, 2)
        spikes = encode_events_to_spikes(s, TimeWindow(0, 100), params(t_bins=8))
        assert spikes[1, 0, 0, 7] == 1.0


def one_one_layer(w_value):
    """A 1->1 channel kernel with only its centre set: on a 1x1 input it
    weights the one pixel by w_value."""
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = float(w_value)
    return w


def single_spike_input(t_bins=8, at=0):
    x = np.zeros((1, 1, 1, t_bins))
    x[0, 0, 0, at] = 1.0
    return x


class TestSRMLayer:
    def test_zero_input_zero_output(self):
        layer = one_one_layer(3.0)
        out = srm_layer_forward(np.zeros((1, 1, 1, 8)), layer)
        assert not out.any()

    def test_threshold_at_kernel_peak(self):
        # DT=1, TAU_S=5: peak v over sampled steps is v(5)=1, so a single
        # input spike through weight w fires iff w >= phi
        x = single_spike_input(t_bins=8, at=0)
        fired = srm_layer_forward(x, one_one_layer(1.0))  # w == phi
        assert fired.sum() >= 1.0
        silent = srm_layer_forward(x, one_one_layer(0.99))
        assert silent.sum() == 0.0

    def test_binary_output(self):
        rng = np.random.default_rng(0)
        layer = rng.normal(0, 1.0, size=(3, 2, 3, 3))
        x = (rng.random((2, 5, 5, 8)) < 0.3).astype(np.float64)
        out = srm_layer_forward(x, layer)
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_refractory_blocks_immediate_refire(self):
        # constant drive just above phi: with refractory the neuron cannot
        # fire at the step right after a spike unless drive > phi + 2phi e^{-DT/TAU_R}
        t_bins = 8
        x = np.zeros((1, 1, 1, t_bins))
        x[0, 0, 0, :] = 1.0  # a spike every step
        layer_weak = one_one_layer(1.05)
        out_weak = srm_layer_forward(x, layer_weak)
        fires = out_weak[0, 0, 0]
        first = int(np.argmax(fires))
        if fires[first] == 1.0 and first + 1 < t_bins:
            assert fires[first + 1] == 0.0

    def test_causality(self):
        rng = np.random.default_rng(1)
        layer = rng.normal(0, 0.8, size=(2, 2, 3, 3))
        for trial in range(50):
            trng = np.random.default_rng(100 + trial)
            x = (trng.random((2, 4, 4, 8)) < 0.4).astype(np.float64)
            cut = int(trng.integers(1, 8))
            y = trng.integers(0, 4)
            zx = trng.integers(0, 4)
            c = trng.integers(0, 2)
            x2 = x.copy()
            x2[c, y, zx, cut:] = 1.0 - x2[c, y, zx, cut:]  # change only t >= cut
            out1 = srm_layer_forward(x, layer)
            out2 = srm_layer_forward(x2, layer)
            assert np.array_equal(out1[..., :cut], out2[..., :cut])


class TestReadout:
    def test_mean_over_time_hand_cases(self):
        x = np.zeros((1, 1, 1, 4))
        x[0, 0, 0, [0, 2]] = 1.0
        assert mean_over_time(x)[0, 0, 0] == 0.5
        assert mean_over_time(np.zeros((1, 2, 2, 4))).sum() == 0.0
        assert np.all(mean_over_time(np.ones((1, 2, 2, 4))) == 1.0)

    def test_uee_empty_stream_zero(self):
        net = random_uee((2, 4, 8), seed=0)
        spikes = encode_events_to_spikes(
            EventStream.empty(16, 16), TimeWindow(0, 100), params()
        )
        out = uee_forward_spikes(spikes, net, out_hw=(2, 2))
        assert out.shape == (8, 2, 2)
        assert not out.any()

    def test_single_layer_identity_weights(self):
        # one drive layer whose kernel centre selects the positive channel:
        # output equals the time mean of the v-filtered positive input
        weights = np.zeros((1, 2, 3, 3))
        weights[0, 1, 1, 1] = 1.0
        net = UeeNetwork(layers=[weights])
        s = EventStream.from_events([Event(0, 0, 10, 1)], 1, 1)
        w = TimeWindow(0, 80)
        spikes = encode_events_to_spikes(s, w, params())
        out = uee_forward_spikes(spikes, net)
        expected = mean_over_time(synaptic_filter(spikes))[1]
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(float(expected[0, 0]), abs=1e-12)

    def test_output_spatial_adapts(self):
        net = random_uee((2, 4, 8, 16), seed=1)
        rng = np.random.default_rng(3)
        n = 60
        t = np.sort(rng.integers(0, 1000, n))
        s = EventStream(
            t, rng.integers(0, 33, n), rng.integers(0, 33, n),
            rng.choice([-1, 1], n), 33, 33,
        )
        spikes = encode_events_to_spikes(s, TimeWindow(0, 1000), params())
        out = uee_forward_spikes(spikes, net, out_hw=(3, 3))
        assert out.shape == (16, 3, 3)
        assert np.all(np.isfinite(out))

    def test_drive_bound(self):
        # un-thresholded final drive is bounded by sum|w| * max v * T... the
        # loose bound sum|w| * 1 * (active fraction <= 1) per step
        rng = np.random.default_rng(4)
        w = rng.normal(0, 0.5, size=(3, 2, 3, 3))
        x = (rng.random((2, 6, 6, 8)) < 0.5).astype(np.float64)
        drive = membrane_drive(x, w)
        bound = np.abs(w).sum() * 1.0 * x.shape[-1]
        assert np.all(np.abs(drive) <= bound)


def random_layer(rng):
    return rng.normal(0, 0.8, size=(3, 2, 3, 3))


def assert_matches_seed(x, layer):
    """srm_layer_forward and membrane_drive equal the seed's loop versions
    bit for bit, and the spikes keep the seed's time-major layout."""
    out = srm_layer_forward(x, layer)
    ref = srm_layer_oracle(x, layer)
    assert np.array_equal(out, ref)
    assert out.transpose(3, 0, 1, 2).flags.c_contiguous
    assert np.array_equal(membrane_drive(x, layer), weighted_psp_oracle(x, layer))
    return out


class TestSeedOracle:
    @pytest.mark.parametrize("t_bins", [1, 2, 8, 32])
    def test_synaptic_filter(self, t_bins):
        rng = np.random.default_rng(t_bins)
        x = (rng.random((2, 5, 6, t_bins)) < 0.3).astype(np.float64)
        assert np.array_equal(synaptic_filter(x), synaptic_filter_oracle(x))

    @pytest.mark.parametrize("t_bins", [1, 2, 8, 32])
    @pytest.mark.parametrize("stride,pad", [(UEE_STRIDE, UEE_PADDING)])
    def test_srm_layer(self, t_bins, stride, pad):
        rng = np.random.default_rng(10 * t_bins + stride + pad)
        x = (rng.random((2, 9, 9, t_bins)) < 0.3).astype(np.float64)
        assert_matches_seed(x, random_layer(rng))

    def test_zero_input(self):
        layer = random_layer(np.random.default_rng(0))
        out = assert_matches_seed(np.zeros((2, 7, 7, 8)), layer)
        assert not out.any()

    @pytest.mark.parametrize("t_bins", [8, 32])
    def test_repeated_firing(self, t_bins):
        # all-positive weights over dense input: neurons fire again and
        # again, and the refractory trace keeps some of them silent although
        # the drive alone reaches phi, so the refractory path decides the output
        rng = np.random.default_rng(t_bins)
        layer = 0.3 * np.abs(rng.normal(0, 1.0, size=(3, 2, 3, 3)))
        x = (rng.random((2, 8, 8, t_bins)) < 0.5).astype(np.float64)
        out = assert_matches_seed(x, layer)
        assert out.sum(axis=-1).max() >= 2
        drive = membrane_drive(x, layer)
        assert np.any((drive >= PHI) & (out == 0.0))

    def test_crop_views(self):
        rng = np.random.default_rng(5)
        big = (rng.random((2, 40, 50, 8)) < 0.3).astype(np.float64)
        layer = random_layer(rng)
        for y, x in [(0, 0), (5, 7), (19, 29)]:
            crop = big[:, y : y + 21, x : x + 21]
            assert not crop.flags.c_contiguous
            assert_matches_seed(crop, layer)

    @pytest.mark.parametrize("config", [MCFRConfig.reduced(), MCFRConfig.tiny()])
    def test_uee_forward_spikes(self, config):
        net = MCFRModel.initialize(config, seed=0).uee
        rng = np.random.default_rng(7)
        size = config.input_crop
        big = (rng.random((2, size + 20, size + 30, config.uee.t_bins)) < 0.2)
        big = big.astype(np.float64)
        hw = config.feature_hw
        for y, x in [(0, 0), (3, 11), (20, 30)]:
            crop = big[:, y : y + size, x : x + size]
            assert srm_layer_forward(crop, net.layers[0]).any()
            assert np.array_equal(
                uee_forward_spikes(crop, net, hw),
                uee_forward_spikes_oracle(crop, net, hw),
            )


class TestCachedConstants:
    """The Toeplitz filter and the refractory tail are built once per T and
    shared read-only."""

    def test_shared_and_read_only(self):
        for build in (_synaptic_matrix, _refractory_tail):
            arr = build(8)
            assert build(8) is arr
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_tail_follows_t(self):
        assert _refractory_tail(32).shape == (31, 1)
        assert _refractory_tail(1).shape == (0, 1)
