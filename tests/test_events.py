import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfr.errors import EventParseError, GeometryError, McfrError
from mcfr.events import (
    Event,
    EventStream,
    TimeWindow,
    load_events,
    save_events,
    slice_window,
)

from .oracles import random_stream
from .strategies import corrupted


def make_stream(rows, width=8, height=8):
    return EventStream.from_events([Event(*r) for r in rows], width, height)


class TestTimeWindow:
    def test_rejects_empty_or_inverted(self):
        with pytest.raises(ValueError):
            TimeWindow(5, 5)
        with pytest.raises(ValueError):
            TimeWindow(6, 5)

    def test_contains_half_open(self):
        w = TimeWindow(10, 20)
        assert w.contains(10)
        assert w.contains(19)
        assert not w.contains(20)
        assert not w.contains(9)


class TestEventStream:
    def test_valid_construction(self):
        s = make_stream([(1, 2, 10, 1), (0, 0, 15, -1), (1, 2, 20, 1)])
        assert len(s) == 3
        assert s[1] == Event(0, 0, 15, -1)

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(EventParseError):
            make_stream([(1, 1, 20, 1), (1, 1, 10, 1)])

    def test_rejects_zero_polarity(self):
        with pytest.raises(EventParseError):
            make_stream([(1, 1, 10, 0)])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(GeometryError):
            make_stream([(8, 0, 10, 1)], width=8, height=8)

    def test_immutable(self):
        s = make_stream([(1, 1, 10, 1)])
        with pytest.raises(AttributeError):
            s.width = 4
        with pytest.raises(ValueError):
            s.t[0] = 5


class TestSliceWindow:
    def test_half_open_bounds(self):
        s = make_stream([(0, 0, 10, 1), (0, 0, 15, 1), (0, 0, 20, 1)])
        got = slice_window(s, TimeWindow(0, 20))
        assert list(got.t) == [10, 15]

    def test_empty_result(self):
        s = make_stream([(0, 0, 10, 1), (0, 0, 15, 1), (0, 0, 20, 1)])
        assert len(slice_window(s, TimeWindow(30, 40))) == 0

    def test_inclusive_lower_bound(self):
        s = make_stream([(0, 0, 10, 1), (0, 0, 15, 1), (0, 0, 20, 1)])
        got = slice_window(s, TimeWindow(10, 11))
        assert list(got.t) == [10]

    def test_partition_reassembles_stream(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.integers(0, 1000, size=200))
        s = EventStream(t, rng.integers(0, 8, 200), rng.integers(0, 8, 200),
                        rng.choice([-1, 1], 200), 8, 8)
        cuts = [0, 250, 500, 750, 1001]
        pieces = [slice_window(s, TimeWindow(a, b)) for a, b in zip(cuts, cuts[1:])]
        t_cat = np.concatenate([p.t for p in pieces])
        assert np.array_equal(t_cat, s.t)
        assert sum(len(p) for p in pieces) == len(s)


class TestFileIO:
    def test_parse_stated_lines(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("10,1,2,1\n15,0,0,-1\n20,1,2,1\n")
        s = load_events(path, geometry=(8, 8))
        assert len(s) == 3
        assert s[0] == Event(1, 2, 10, 1)

    def test_empty_file_header_only(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("# t_us,x,y,p\n# 4,4\n")
        s = load_events(path)
        assert len(s) == 0
        assert (s.width, s.height) == (4, 4)

    def test_ordering_violation_reports_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("20,1,1,1\n10,1,1,1\n")
        with pytest.raises(EventParseError) as exc:
            load_events(path, geometry=(8, 8))
        assert exc.value.line == 2

    def test_bad_polarity_rejected(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("10,1,1,2\n")
        with pytest.raises(EventParseError):
            load_events(path, geometry=(8, 8))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("10,1,1,1\nnot,a,line\n")
        with pytest.raises(EventParseError) as exc:
            load_events(path, geometry=(8, 8))
        assert exc.value.line == 2

    def test_non_ascii_reports_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_bytes(b"1,1,1,1\n2,\xff,1,1\n")
        with pytest.raises(EventParseError, match="non-ASCII") as exc:
            load_events(path, geometry=(8, 8))
        assert exc.value.line == 2

    @pytest.mark.parametrize("line", [b"99999999999999999999,1,1,1", b"1,3000000000,1,1"])
    def test_out_of_range_field_rejected(self, tmp_path, line):
        path = tmp_path / "ev.csv"
        path.write_bytes(line + b"\n")
        with pytest.raises(EventParseError, match="range"):
            load_events(path)

    def test_round_trip_small(self, tmp_path):
        s = make_stream([(1, 2, 10, 1), (0, 0, 15, -1), (1, 2, 20, 1)])
        path = tmp_path / "ev.csv"
        save_events(s, path)
        assert load_events(path) == s

    def test_round_trip_empty(self, tmp_path):
        s = EventStream.empty(5, 6)
        path = tmp_path / "ev.csv"
        save_events(s, path)
        back = load_events(path)
        assert len(back) == 0
        assert (back.width, back.height) == (5, 6)

    def test_round_trip_10k_random(self, tmp_path):
        rng = np.random.default_rng(42)
        n = 10_000
        t = np.sort(rng.integers(0, 10**9, size=n))
        s = EventStream(
            t,
            rng.integers(0, 640, n),
            rng.integers(0, 480, n),
            rng.choice([-1, 1], n),
            640,
            480,
        )
        path = tmp_path / "ev.csv"
        save_events(s, path)
        back = load_events(path)
        assert back == s  # bit-exact field equality


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 15),
            st.integers(0, 15),
            st.integers(0, 10**6),
            st.sampled_from([-1, 1]),
        ),
        max_size=200,
    )
)
def test_round_trip_property(tmp_path_factory, rows):
    rows = sorted(rows, key=lambda r: r[2])
    s = EventStream.from_events(
        [Event(x, y, t, p) for x, y, t, p in rows], 16, 16
    )
    path = tmp_path_factory.mktemp("ev") / "ev.csv"
    save_events(s, path)
    assert load_events(path) == s


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_events_fuzz(tmp_path_factory, data):
    # truncations and byte flips of a valid event CSV: only McfrError leaves
    path = tmp_path_factory.mktemp("ev") / "ev.csv"
    save_events(random_stream(np.random.default_rng(0), 20, 16, 16, 10**6), path)
    path.write_bytes(data.draw(corrupted(path.read_bytes(), hot=32)))
    try:
        load_events(path)
    except McfrError:
        pass
