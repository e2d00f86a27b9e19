import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfr.errors import GeometryError, McfrError
from mcfr.events import Event, EventStream, TimeWindow
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
    return EventStream.from_events([Event(*r) for r in rows], width, height)


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
        f = stack_events(EventStream.empty(4, 4), TimeWindow(0, 10))
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
        f = stack_events(EventStream.empty(4, 4), TimeWindow(0, 10))
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


class TestAssembleInput:
    def test_zero_events_keeps_rgb(self):
        f = stack_events(EventStream.empty(4, 4), TimeWindow(0, 10))
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

    def test_ablation_zeroing(self):
        rng = np.random.default_rng(4)
        s = random_stream(rng, 200, 4, 4, 1000)
        f = stack_events(s, TimeWindow(0, 1000))
        rgb = rng.random((3, 4, 4))
        counts_only = assemble_input(rgb, f, use_timestamps=False)
        assert counts_only[3:5].any() and not counts_only[5:7].any()
        times_only = assemble_input(rgb, f, use_counts=False)
        assert not times_only[3:5].any() and times_only[5:7].any()
        events_only = assemble_input(rgb, f, use_rgb=False)
        assert not events_only[0:3].any()
        assert counts_only.shape == (7, 4, 4)

    def test_geometry_mismatch(self):
        f = stack_events(EventStream.empty(4, 4), TimeWindow(0, 10))
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

    @pytest.mark.parametrize("width,height,t0,t1,message", [
        (3, 2, 10, 5, r"inverted window \[10, 5\)"),
        (3, 2, 7, 7, r"inverted window \[7, 7\)"),
        (0, 2, 0, 10, "invalid dimensions 0x2"),
        (3, 0, 0, 10, "invalid dimensions 3x0"),
    ])
    def test_named_fault(self, tmp_path, width, height, t0, t1, message):
        path = tmp_path / "bad.mcst"
        header = b"MCST" + struct.pack("<IIQQ", width, height, t0, t1)
        path.write_bytes(header + bytes(16 * width * height))
        with pytest.raises(McfrError, match=message):
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
