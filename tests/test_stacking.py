import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfr.errors import MAX_SENSOR_SIDE, GeometryError, McfrError
from mcfr.events import EventStream, TimeWindow, slice_window
from mcfr.snn import SRMParams, encode_events_to_spikes
from mcfr.stacking import (
    assemble_input,
    load_stacked,
    normalize_stacked,
    save_stacked,
    stack_events,
)

from .oracles import random_stream, stack_oracle
from .strategies import corrupted


def make_stream(rows, width=4, height=4):
    return EventStream.from_events(rows, width, height)


class TestStackEvents:
    def test_hand_case(self):
        s = make_stream([(1, 2, 10, 1), (0, 0, 15, -1), (1, 2, 20, 1)])
        f = stack_events(s, TimeWindow(0, 30))
        assert f.c_pos[2, 1] == 2
        assert f.c_neg[0, 0] == 1
        assert f.t_pos[2, 1] == 20
        assert f.t_neg[0, 0] == 15
        assert f.c_pos.sum() == 2 and f.c_neg.sum() == 1
        assert f.t_pos.sum() == 20 and f.t_neg.sum() == 15

    def test_empty_stream_all_zero(self):
        f = stack_events(EventStream([], [], [], [], 4, 4), TimeWindow(0, 10))
        for grid in (f.c_pos, f.c_neg, f.t_pos, f.t_neg):
            assert not grid.any()

    def test_single_event(self):
        s = make_stream([(3, 1, 7, -1)])
        f = stack_events(s, TimeWindow(0, 10))
        assert f.c_neg[1, 3] == 1
        assert f.t_neg[1, 3] == 7
        assert f.c_neg.sum() == 1 and f.c_pos.sum() == 0

    def test_matches_oracle_on_random_streams(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(0, 2000))
            s = random_stream(rng, n, 16, 12, 5000)
            w = TimeWindow(int(rng.integers(0, 2000)), int(rng.integers(2001, 5001)))
            f = stack_events(s, w)
            cp, cn, tp, tn = stack_oracle(s, w)
            assert np.array_equal(f.c_pos, cp)
            assert np.array_equal(f.c_neg, cn)
            assert np.array_equal(f.t_pos, tp)
            assert np.array_equal(f.t_neg, tn)

    def test_count_sum_equals_window_population(self):
        rng = np.random.default_rng(1)
        s = random_stream(rng, 500, 8, 8, 1000)
        w = TimeWindow(200, 700)
        f = stack_events(s, w)
        in_window = int(np.sum((s.t >= 200) & (s.t < 700)))
        assert int(f.c_pos.sum() + f.c_neg.sum()) == in_window


class TestNormalize:
    def test_all_zero(self):
        f = stack_events(EventStream([], [], [], [], 4, 4), TimeWindow(0, 10))
        assert not normalize_stacked(f).any()

    def test_count_scaling(self):
        rows = [(0, 0, 1, 1)] * 4 + [(1, 1, 2, 1)] * 2
        s = make_stream(sorted(rows, key=lambda r: r[2]))
        f = stack_events(s, TimeWindow(0, 10))
        norm = normalize_stacked(f)
        assert norm[0, 0, 0] == 1.0  # max count 4 -> 1.0
        assert norm[0, 1, 1] == 0.5  # count 2 with max 4

    def test_timestamp_scaling(self):
        s = make_stream([(2, 2, 25, 1)])
        f = stack_events(s, TimeWindow(0, 100))
        norm = normalize_stacked(f)
        assert norm[2, 2, 2] == 0.25
        assert norm[3].sum() == 0.0

    def test_range(self):
        rng = np.random.default_rng(2)
        s = random_stream(rng, 1000, 8, 8, 1000)
        norm = normalize_stacked(stack_events(s, TimeWindow(0, 1000)))
        assert norm.min() >= 0.0 and norm.max() <= 1.0


class TestWindowBoundsPastInt64:
    """Event times are int64, so a window from 2**63 on holds no event, and
    an event offset t - t0 past int64 is refused; every other window keeps
    the planes of the plain int64 offsets."""

    def test_window_past_int64_dumps_empty_planes(self, tmp_path):
        window = TimeWindow(2**63, 2**63 + 1)
        f = stack_events(EventStream([], [], [], [], 4, 4), window)
        path = tmp_path / "frame.mcst"
        save_stacked(f, path)
        planes, loaded, _, _ = load_stacked(path)
        assert loaded == window and not planes.any()
        assert not assemble_input(np.ones((3, 4, 4)), f)[3:].any()

    @pytest.mark.parametrize("t0", [2**63, 2**64, -(2**63) - 1, -(2**70)])
    def test_window_without_events_is_all_zero(self, t0):
        s = make_stream([(1, 1, 5, 1), (2, 2, 2**62, -1)])
        f = stack_events(s, TimeWindow(t0, 2**71) if t0 > 0 else TimeWindow(t0, 5))
        assert not normalize_stacked(f).any()

    @pytest.mark.parametrize("window,inside", [
        (TimeWindow(2**63, 2**71), 0), (TimeWindow(2**62, 2**63), 1),
        (TimeWindow(2**63 - 1, 2**64), 1), (TimeWindow(-(2**64), 2**63 - 1), 0),
        (TimeWindow(-(2**64), 2**63), 1), (TimeWindow(-(2**65), -(2**64)), 0)])
    def test_event_at_int64_max_against_bounds_past_int64(self, window, inside):
        # compared as float64, 2**63 - 1 rounds to 2**63 and lands on the
        # wrong side of a bound of 2**63 or more
        s = make_stream([(2, 2, 2**63 - 1, -1)])
        assert stack_events(s, window).c_neg.sum() == inside

    @pytest.mark.parametrize("t0", [-(2**63), -1, 0, 3, 2**62, 2**63 - 2])
    def test_in_range_windows_slice_as_a_mask(self, t0):
        t = np.array([0, 1, 3, 3, 2**62, 2**63 - 2, 2**63 - 1], dtype=np.int64)
        s = EventStream(t, np.arange(7) % 4, np.zeros(7, int), np.ones(7, int), 4, 4)
        for t1 in (t0 + 1, t0 + 2, 2**63 - 1):
            if t0 < t1 < 2**63:
                keep = (t >= t0) & (t < t1)
                assert stack_events(s, TimeWindow(t0, t1)).c_pos.sum() == keep.sum()

    @pytest.mark.parametrize("window", [TimeWindow(-(2**63), 10),
                                        TimeWindow(-(2**63) - 1, 10),
                                        TimeWindow(-(2**62) - 1, 2**62)])
    def test_offset_past_int64_refused(self, window):
        f = stack_events(make_stream([(1, 1, 5, 1), (2, 2, 2**62 - 1, 1)]), window)
        with pytest.raises(McfrError, match="int64"):
            normalize_stacked(f)
        with pytest.raises(McfrError, match="int64"):
            assemble_input(np.zeros((3, 4, 4)), f)

    @pytest.mark.parametrize("t0,t1", [(0, 1000), (-500, 1000), (2**62, 2**63),
                                       (-(2**62), 2**62), (2**63 - 1000, 2**64),
                                       (1 - 2**63, 1)])
    def test_other_windows_keep_int64_offsets(self, t0, t1):
        rng = np.random.default_rng(7)
        lo, hi = max(t0, 0), min(t1, 2**63)
        t = np.sort(rng.integers(lo, hi, size=200, dtype=np.int64, endpoint=False))
        s = EventStream(t, rng.integers(0, 5, 200), rng.integers(0, 3, 200),
                        rng.choice([-1, 1], 200), 5, 3)
        f = stack_events(s, TimeWindow(t0, t1))
        span = float(t1 - t0)
        want = np.stack([
            f.c_pos / max(1, f.c_pos.max(), f.c_neg.max()),
            f.c_neg / max(1, f.c_pos.max(), f.c_neg.max()),
            np.where(f.c_pos > 0, (f.t_pos - np.int64(t0)) / span, 0.0),
            np.where(f.c_neg > 0, (f.t_neg - np.int64(t0)) / span, 0.0),
        ])
        assert normalize_stacked(f).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t0", [-(2**63), -(2**63) - 5])
    def test_spike_bins_refuse_offsets_past_int64(self, t0):
        # an int64 t - t0 wraps negative at t0 = -2**63 (bin 0 instead of
        # bin 7), and a Python int t0 below int64 overflows the subtraction
        s = make_stream([(1, 1, 5, 1), (2, 2, 6, -1)])
        window = TimeWindow(t0, 10)
        with pytest.raises(McfrError, match="int64"):
            normalize_stacked(stack_events(s, window))
        with pytest.raises(McfrError, match="int64"):
            encode_events_to_spikes(s, window, SRMParams(8))

    @pytest.mark.parametrize("t0,t1", [(-(2**62), 2**63 - 1), (0, 2**63 - 1),
                                       (-5000, 40000), (3, 7)])
    def test_numpy_bounds_give_the_python_int_window(self, t0, t1):
        # a window stores its bounds as Python ints: as int64 scalars,
        # t1 - t0 overflowed past int64, and the offsets refused the window
        s = EventStream([0, 5], [0, 1], [0, 1], [1, -1], 2, 2)
        ints, nps = TimeWindow(t0, t1), TimeWindow(np.int64(t0), np.int64(t1))
        assert (type(nps.t0), type(nps.t1)) == (int, int)
        assert nps == ints and hash(nps) == hash(ints)
        assert slice_window(s, nps) == slice_window(s, ints)
        planes = [normalize_stacked(stack_events(s, w)) for w in (ints, nps)]
        assert planes[0].tobytes() == planes[1].tobytes()
        spikes = [encode_events_to_spikes(s, w, SRMParams(8)) for w in (ints, nps)]
        assert spikes[0].tobytes() == spikes[1].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_spikes_and_planes_share_one_window_rule(self, data):
        """Both refuse a window exactly when an event's offset t - t0 is past
        int64; otherwise every spike sits in the bin of its exact offset."""
        base = data.draw(st.sampled_from([-(2**63), 0, 2**63]))
        t0 = base + data.draw(st.integers(-(2**16), 2**16))
        end = data.draw(st.sampled_from([0, 2**63, 2**64]))
        t1 = max(t0 + 1, end + data.draw(st.integers(-(2**17), 2**17)))
        times = st.one_of(st.integers(0, 2**17), st.integers(2**63 - 2**17, 2**63 - 1))
        rows = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), times,
                                            st.sampled_from([-1, 1])), max_size=8))
        s, window = make_stream(sorted(rows, key=lambda r: r[2])), TimeWindow(t0, t1)
        srm = SRMParams(data.draw(st.integers(1, 16)))
        inside = [r for r in rows if t0 <= r[2] < t1]
        if any(t - t0 >= 2**63 for _, _, t, _ in inside):
            with pytest.raises(McfrError, match="int64"):
                normalize_stacked(stack_events(s, window))
            with pytest.raises(McfrError, match="int64"):
                encode_events_to_spikes(s, window, srm)
            return
        normalize_stacked(stack_events(s, window))
        want = np.zeros((2, 4, 4, srm.t_bins))
        for x, y, t, p in inside:
            rel = float(t - t0) / float(t1 - t0)
            want[int(p == 1), y, x, min(int(rel * srm.t_bins), srm.t_bins - 1)] = 1.0
        assert encode_events_to_spikes(s, window, srm).tobytes() == want.tobytes()


class TestAssembleInput:
    def test_zero_events_keeps_rgb(self):
        f = stack_events(EventStream([], [], [], [], 4, 4), TimeWindow(0, 10))
        rgb = np.random.default_rng(0).random((3, 4, 4))
        out = assemble_input(rgb, f)
        assert np.array_equal(out[0:3], rgb)
        assert not out[3:].any()

    def test_channel_identity(self):
        rng = np.random.default_rng(3)
        s = random_stream(rng, 200, 4, 4, 1000)
        f = stack_events(s, TimeWindow(0, 1000))
        rgb = rng.random((3, 4, 4))
        out = assemble_input(rgb, f)
        norm = normalize_stacked(f)
        for k in range(3):
            assert np.array_equal(out[k], rgb[k])
        for k in range(4):
            assert np.array_equal(out[3 + k], norm[k])

    def test_geometry_mismatch(self):
        f = stack_events(EventStream([], [], [], [], 4, 4), TimeWindow(0, 10))
        with pytest.raises(GeometryError):
            assemble_input(np.zeros((3, 5, 4)), f)


class TestStackedDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        s = random_stream(rng, 300, 6, 5, 1000)
        f = stack_events(s, TimeWindow(0, 1000))
        path = tmp_path / "frame.mcst"
        save_stacked(f, path)
        planes, window, width, height = load_stacked(path)
        assert (width, height) == (6, 5)
        assert window == TimeWindow(0, 1000)
        norm = normalize_stacked(f)
        assert np.allclose(planes, norm, atol=1e-7)

    def test_truncated_rejected(self, tmp_path):
        from mcfr.errors import McfrError

        path = tmp_path / "bad.mcst"
        path.write_bytes(b"MCST\x01\x00")
        with pytest.raises(McfrError):
            load_stacked(path)

    @pytest.mark.parametrize("window", [TimeWindow(0, 2**64), TimeWindow(-1, 10),
                                        TimeWindow(2**64, 2**64 + 1)])
    def test_bound_outside_u64_refused_before_the_file_is_opened(self, tmp_path, window):
        f = stack_events(EventStream([], [], [], [], 4, 4), window)
        path = tmp_path / "frame.mcst"
        with pytest.raises(McfrError, match="u64"):
            save_stacked(f, path)
        assert not path.exists()

    def test_largest_u64_bound_round_trips(self, tmp_path):
        window = TimeWindow(0, 2**64 - 1)
        path = tmp_path / "frame.mcst"
        save_stacked(stack_events(EventStream([], [], [], [], 4, 4), window), path)
        assert load_stacked(path)[1] == window

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5, 1.5])
    @pytest.mark.parametrize("offset", [28, -4])
    def test_plane_value_outside_unit_interval_refused(self, tmp_path, value, offset):
        # the first and the last value of the four planes
        path = tmp_path / "frame.mcst"
        save_stacked(stack_events(EventStream([], [], [], [], 3, 2), TimeWindow(0, 10)), path)
        data = bytearray(path.read_bytes())
        at = offset % len(data)
        data[at : at + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(McfrError, match=r"outside \[0, 1\]"):
            load_stacked(path)

    @pytest.mark.parametrize("width,height,t0,t1,message", [
        (3, 2, 10, 5, r"end of window \[10, t1\) must be an integer >= 11, got 5"),
        (3, 2, 7, 7, r"end of window \[7, t1\) must be an integer >= 8, got 7"),
        (0, 2, 0, 10, "width must be an integer >= 1, got 0"),
        (3, 0, 0, 10, "height must be an integer >= 1, got 0"),
    ])
    def test_named_fault(self, tmp_path, width, height, t0, t1, message):
        path = tmp_path / "bad.mcst"
        header = b"MCST" + struct.pack("<IIQQ", width, height, t0, t1)
        path.write_bytes(header + bytes(16 * width * height))
        with pytest.raises(McfrError, match=message):
            load_stacked(path)

    @pytest.mark.parametrize("width,height", [(MAX_SENSOR_SIDE + 1, 1), (1, MAX_SENSOR_SIDE + 1)])
    def test_side_over_cap(self, tmp_path, width, height):
        # a complete dump, so only the cap can refuse it
        path = tmp_path / "big.mcst"
        header = b"MCST" + struct.pack("<IIQQ", width, height, 0, 10)
        path.write_bytes(header + bytes(16 * width * height))
        with pytest.raises(GeometryError, match=f"must be an integer <= {MAX_SENSOR_SIDE}, got"):
            load_stacked(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_stacked_fuzz(tmp_path_factory, data):
    # truncations and byte flips of a valid dump: only McfrError leaves
    path = tmp_path_factory.mktemp("mcst") / "f.mcst"
    stream = random_stream(np.random.default_rng(1), 30, 3, 2, 1000)
    save_stacked(stack_events(stream, TimeWindow(0, 1000)), path)
    path.write_bytes(data.draw(corrupted(path.read_bytes(), hot=28)))
    try:
        load_stacked(path)
    except McfrError:
        pass
