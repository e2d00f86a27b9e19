import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfr import events
from mcfr.errors import MAX_SENSOR_SIDE, EventParseError, GeometryError, McfrError
from mcfr.events import (
    EventStream,
    TimeWindow,
    load_events,
    save_events,
    slice_window,
)

from .oracles import random_stream, save_events_oracle
from .strategies import corrupted


def make_stream(rows, width=8, height=8):
    return EventStream.from_events(rows, width, height)


class TestTimeWindow:
    def test_rejects_empty_or_inverted(self):
        with pytest.raises(ValueError):
            TimeWindow(5, 5)
        with pytest.raises(ValueError):
            TimeWindow(6, 5)
        with pytest.raises(ValueError):
            TimeWindow(np.int64(2**63 - 1), np.int64(5))

    @pytest.mark.parametrize("t0,t1", [(0, 1.5), (0.0, 2.0), (0.0, 2), (False, True),
                                       (0, np.float64(3.0)), ("0", "5")])
    def test_rejects_non_integer_bounds(self, t0, t1):
        # a stacked dump stores the bounds as u64 integers, and a bool is no time
        with pytest.raises(ValueError, match="must be an integer"):
            TimeWindow(t0, t1)

    @pytest.mark.parametrize("t0,t1", [(0, 1), (np.int64(-5), np.int32(7)),
                                       (-(2**70), 2**70)])
    def test_accepts_integer_bounds_past_int64(self, t0, t1):
        assert TimeWindow(t0, t1).duration == t1 - t0


class TestEventStream:
    def test_valid_construction(self):
        s = make_stream([(1, 2, 10, 1), (0, 0, 15, -1), (1, 2, 20, 1)])
        assert len(s) == 3
        assert (s.x[1], s.y[1], s.t[1], s.p[1]) == (0, 0, 15, -1)

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(EventParseError):
            make_stream([(1, 1, 20, 1), (1, 1, 10, 1)])

    def test_rejects_zero_polarity(self):
        with pytest.raises(EventParseError):
            make_stream([(1, 1, 10, 0)])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(GeometryError):
            make_stream([(8, 0, 10, 1)], width=8, height=8)

    def test_geometry_cap(self):
        side = MAX_SENSOR_SIDE
        assert EventStream([], [], [], [], side, side).width == side
        for width, height in [(side + 1, 1), (1, side + 1)]:
            with pytest.raises(GeometryError, match=f"must be an integer <= {MAX_SENSOR_SIDE}, got"):
                EventStream([], [], [], [], width, height)

    @pytest.mark.parametrize("width,height", [
        (3.5, 2), (3, 2.0), (True, 2), (3, np.float64(2)), ("3", 2),
    ])
    def test_geometry_must_be_integers(self, width, height):
        # a width of 3.5 would be stored as 3, yet x = 3 passes x < 3.5
        with pytest.raises(GeometryError, match="must be an integer"):
            EventStream([0], [3], [0], [1], width, height)

    def test_numpy_integer_geometry(self):
        s = EventStream([0], [3], [1], [1], np.int64(4), np.int32(2))
        assert (s.width, s.height) == (4, 2) and type(s.width) is int

    def test_immutable(self):
        s = make_stream([(1, 1, 10, 1)])
        with pytest.raises(AttributeError):
            s.width = 4
        with pytest.raises(ValueError):
            s.t[0] = 5

    @pytest.mark.parametrize("field, values", [
        ("x", np.array([2**32 + 5])),  # int32 would keep 5
        ("p", np.array([257])),  # int8 would keep 1
        ("t", np.array([1.9])),
        ("x", np.array([2.7])),
        ("t", np.array([np.nan])),
        ("t", np.array([2**63], dtype=np.uint64)),
        ("x", [2**32 + 5]),
        ("t", [2**70]),
    ])
    def test_refuses_values_the_cast_would_change(self, field, values):
        fields = dict(t=[1], x=[1], y=[1], p=[1], width=8, height=8)
        fields[field] = values
        with pytest.raises(EventParseError, match="range"):
            EventStream(**fields)

    def test_accepts_integral_values_of_any_dtype(self):
        s = EventStream(np.array([1.0, 2.0]), np.array([3, 4], np.uint8),
                        [5, 6], np.array([1, -1], np.int64), 8, 8)
        assert s == make_stream([(3, 5, 1, 1), (4, 6, 2, -1)])


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

    def test_slice_equals_validated_construction(self):
        s = random_stream(np.random.default_rng(3), 500, 16, 12, 10_000)
        for t0, t1 in [(0, 10_000), (-5, 17), (2_500, 2_501), (4_000, 7_500), (9_999, 20_000)]:
            got = slice_window(s, TimeWindow(t0, t1))
            keep = (s.t >= t0) & (s.t < t1)
            want = EventStream(s.t[keep], s.x[keep], s.y[keep], s.p[keep], 16, 12)
            assert got == want
            assert [a.dtype for a in (got.t, got.x, got.y, got.p)] == \
                [a.dtype for a in (want.t, want.x, want.y, want.p)]
            assert not any(a.flags.writeable for a in (got.t, got.x, got.y, got.p))


class TestFileIO:
    def test_parse_stated_lines(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("10,1,2,1\n15,0,0,-1\n20,1,2,1\n")
        s = load_events(path, geometry=(8, 8))
        assert len(s) == 3
        assert (s.x[0], s.y[0], s.t[0], s.p[0]) == (1, 2, 10, 1)

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

    @pytest.mark.parametrize("line", [b"1_0,1,2,1", b"+20,3,4,-1", b"10,1,2,+1", b"10,1_1,2,1"])
    def test_non_decimal_field_rejected(self, tmp_path, line):
        path = tmp_path / "ev.csv"
        path.write_bytes(b"5,0,0,1\n" + line + b"\n")
        with pytest.raises(EventParseError, match="non-decimal") as exc:
            load_events(path, geometry=(8, 8))
        assert exc.value.line == 2

    def test_non_decimal_sidecar_is_a_plain_comment(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("# 1_0,1_0\n# +6,+6\n10,1,2,1\n20,3,4,-1\n")
        s = load_events(path)
        assert (s.width, s.height) == (4, 5)  # inferred from the events

    @pytest.mark.parametrize("line", [b"99999999999999999999,1,1,1", b"1,3000000000,1,1"])
    def test_out_of_range_field_rejected(self, tmp_path, line):
        path = tmp_path / "ev.csv"
        path.write_bytes(line + b"\n")
        with pytest.raises(EventParseError, match="range"):
            load_events(path)

    @pytest.mark.parametrize("sidecar", [
        b"# 200000,200000",  # a 40-gigapixel grid once stacked
        b"# 99999999999999999999999,5",  # past int64
    ])
    def test_oversized_geometry_rejected(self, tmp_path, sidecar):
        path = tmp_path / "ev.csv"
        path.write_bytes(sidecar + b"\n1,0,0,1\n")
        with pytest.raises(GeometryError, match=f"must be an integer <= {MAX_SENSOR_SIDE}, got"):
            load_events(path)

    def test_round_trip_small(self, tmp_path):
        s = make_stream([(1, 2, 10, 1), (0, 0, 15, -1), (1, 2, 20, 1)])
        path = tmp_path / "ev.csv"
        save_events(s, path)
        assert load_events(path) == s

    def test_round_trip_empty(self, tmp_path):
        s = EventStream([], [], [], [], 5, 6)
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


def _outcome(load, path, geometry=None):
    """The stream a loader returns, or the class and line of its McfrError."""
    try:
        return load(path, geometry)
    except McfrError as exc:
        return type(exc), getattr(exc, "line", None)


def _line_parser_disabled(path, geometry):
    raise AssertionError("load_events fell back to the line parser")


def _loadtxt_via_float(fh, delimiter, dtype, comments, ndmin):
    """np.loadtxt as older NumPy releases parse an integer field past its
    dtype's range: as a float, cast to the dtype with only a
    DeprecationWarning. The cast is left to the C compiler; this stand-in
    saturates int64, as on aarch64, and wraps narrower types."""
    dtype = np.dtype(dtype)
    rows = []
    for line in fh.read().decode("ascii").splitlines():
        if line:
            fields = line.split(delimiter)
            kinds = [dtype[n] for n in dtype.names] if dtype.names else [dtype] * len(fields)
            if len(fields) != len(kinds) or rows and len(fields) != len(rows[0]):
                raise ValueError("the number of columns changed")
            rows.append(tuple(_int_via_float(s, k) for s, k in zip(fields, kinds)))
    out = np.array(rows, dtype)
    return out if dtype.names else out.reshape(len(rows), -1)


def _int_via_float(field, dtype):
    value = int(field)
    info = np.iinfo(dtype)
    if info.min <= value <= info.max:
        return value
    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                  DeprecationWarning)
    if info.bits == 64:
        return info.max if value > 0 else info.min
    return (value - info.min) % 2**info.bits + info.min


class TestReaderPaths:
    """load_events must agree with the line parser, which it falls back to."""

    HEADER = b"# t_us,x,y,p\n# 8,8\n"

    @pytest.mark.parametrize("body", [
        b"",
        b"\n",
        b"\n\n\n",
        b"1,1,1,1\n\n2,2,2,-1\n",
        b"1,1,1,1\n2,2,2,-1",  # no final newline
        b"-0,1,1,1\n",
        b"0007,01,002,-01\n",
        b"000000000000000001,1,1,1\n",  # 18 bytes, the fast path's field cap
        b"00000000000000000001,1,1,1\n",  # 20 digits that fit int64
        b"9999999999999999999,1,1,1\n",  # 19 digits past int64
        b"10000000000000000000,1,1,1\n",  # 20 digits past int64
        b"9223372036854775807,1,1,1\n",
        b"-9223372036854775808,1,1,1\n",
        b"1,4294967301,1,1\n",  # x = 2**32 + 5
        b"1,1,1,257\n",
        b"1,1,1,255\n",
        b"1,1,1,-255\n",
        b"1,-1,1,1\n",
        b"1,9,1,1\n",
        b"5,1,1,1\n6,1,1,1\n4,1,1,1\n",
        b"1,1,1,1\n# 4,4\n2,2,2,1\n",  # a sidecar in the body
        b"1,1,1,1\n#x\n2,2,2,1\n",
        b"1,1,1,1\r\n2,2,2,1\r\n",
        b"1,1,1,1\r2,2,2,1\r",
        b"1,1,1,1,\n",
        b"1,1,1\n2,2,2\n",
        b"1,1,1,1\n2,2,2\n",
        b"1,1,1,1,1\n",
        b"0-1,1,1,1\n",
        b"1-,1,1,1\n",
        b"--1,1,1,1\n",
        b"-,1,1,1\n",
        b",1,1,1\n",
        b"1,,1,1\n",
        b"-\n",
        b",\n",
        b"1, 1,1,1\n",
        b"+1,1,1,1\n",
        b"1_0,1,1,1\n",
        b"1,\xff,1,1\n",
        b"0" * 700 + b"1,1,1,1\n",
        b"0" * 5000 + b"1,1,1,1\n",  # past int()'s digit limit
        b"1,1,1,1\n" + b"0" * (events._BLOCK + 10),  # no newline for a block
    ])
    @pytest.mark.parametrize("header", [b"", HEADER, b"# 4,4\r# 8,8\n", b"# \xff\n"])
    def test_matches_line_parser(self, tmp_path, header, body):
        path = tmp_path / "ev.csv"
        path.write_bytes(header + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a blank body
            got = _outcome(load_events, path)
        assert got == _outcome(events._load_events_lines, path)

    @pytest.mark.parametrize("loadtxt", [np.loadtxt, _loadtxt_via_float],
                             ids=["numpy", "float-fallback"])
    @pytest.mark.parametrize("body", [
        b"1,1,1,255\n",
        b"1,1,1,257\n",
        b"1,1,1,-255\n",
        b"1,4294967301,1,1\n",
        b"1,1,-2147483649,1\n",
        b"9999999999999999999,1,1,1\n",
        b"12345678901234567890,1,1,1\n",
        b"-9223372036854775809,1,1,1\n",
        b"5,1,1,1\n999999999999999999,2,2,-1\n",
    ])
    def test_wrapped_values_fall_back_with_warnings_off(self, tmp_path, monkeypatch,
                                                        loadtxt, body):
        path = tmp_path / "ev.csv"
        path.write_bytes(self.HEADER + body)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as a caller outside pytest runs
            got = _outcome(load_events, path)
        assert got == _outcome(events._load_events_lines, path)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="int() has no digit limit on this Python")
    @pytest.mark.parametrize("body", [
        b"0" * 5000 + b"1,1,1,1\n",  # leading zeros do not count
        b"1,1,1," + b"0" * 5000 + b"1\n",
        b"1" * 5000 + b",1,1,1\n",  # past every range
        b"1,1,1,-" + b"9" * 700 + b"\n",
        b"1,1,1,1\n" + b"1" * 30 + b",1,1,1\n",
    ])
    @pytest.mark.parametrize("header", [
        HEADER,
        b"# " + b"0" * 5000 + b"8,8\n",
        b"# " + b"9" * 5000 + b",8\n",
    ])
    def test_outcome_does_not_depend_on_the_int_digit_limit(self, tmp_path, header, body):
        path = tmp_path / "ev.csv"
        path.write_bytes(header + body)
        default = sys.get_int_max_str_digits()
        outcomes = []
        try:
            for limit in (default, 640, 0):
                sys.set_int_max_str_digits(limit)
                outcomes.append((_outcome(load_events, path),
                                 _outcome(events._load_events_lines, path)))
        finally:
            sys.set_int_max_str_digits(default)
        assert outcomes[0][0] == outcomes[0][1]
        assert outcomes[1:] == outcomes[:1] * 2

    @pytest.mark.parametrize("zeros", [0, 17, 5000])
    def test_leading_zeros_do_not_count(self, tmp_path, zeros):
        path = tmp_path / "ev.csv"
        path.write_bytes(b"# " + b"0" * zeros + b"8,8\n" + b"0" * zeros + b"1,2,3,-1\n")
        s = load_events(path)
        assert (s.width, s.height, s.t.tolist(), s.p.tolist()) == (8, 8, [1], [-1])

    def test_decreasing_timestamp_names_its_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_bytes(self.HEADER + b"5,1,1,1\n6,1,1,1\n4,1,1,1\n")
        assert _outcome(load_events, path) == (EventParseError, 5)

    @pytest.mark.parametrize("body", [
        b"",
        b"\n\n",
        b"-0,1,1,1\n0007,01,002,-01\n\n9,1,1,1",
        b"000000000000000001,7,7,1\n999999999999999999,0,0,-1\n",
    ])
    def test_plain_files_skip_the_line_parser(self, tmp_path, monkeypatch, body):
        path = tmp_path / "ev.csv"
        path.write_bytes(self.HEADER + body)
        want = events._load_events_lines(path, None)
        monkeypatch.setattr(events, "_load_events_lines", _line_parser_disabled)
        assert load_events(path) == want

    def test_saved_file_skips_the_line_parser(self, tmp_path, monkeypatch):
        s = random_stream(np.random.default_rng(42), 10_000, 640, 480, 10**9)
        path = tmp_path / "ev.csv"
        save_events(s, path)
        monkeypatch.setattr(events, "_load_events_lines", _line_parser_disabled)
        assert load_events(path) == s

    def test_a_line_longer_than_a_block_is_not_buffered(self, tmp_path, monkeypatch):
        parse, sizes = events._parse_plain, []
        monkeypatch.setattr(events, "_parse_plain",
                            lambda lines: sizes.append(len(lines)) or parse(lines))
        path = tmp_path / "ev.csv"
        path.write_bytes(b"1,1,1,1\n" + b"0" * (3 * events._BLOCK))
        assert _outcome(load_events, path) == (EventParseError, 2)  # one field, not 4
        assert max(sizes, default=0) <= events._BLOCK

    def test_line_across_a_block_boundary(self, tmp_path, monkeypatch):
        n = events._BLOCK // 16  # save_events writes at least 16 bytes an event here
        s = random_stream(np.random.default_rng(5), n, 346, 260, 10**8)
        path = tmp_path / "ev.csv"
        save_events(s, path)
        data = path.read_bytes()
        head = b"# t_us,x,y,p\n# 346,260\n"  # the blocks start after it
        at = len(head) + events._BLOCK
        assert data.startswith(head)
        assert len(data) > at and data[at - 1:at + 1].isdigit()  # mid-line
        line = data[:at].count(b"\n") + 1
        path.write_bytes(data[:at] + b" " + data[at + 1:])
        assert _outcome(load_events, path) == (EventParseError, line)
        path.write_bytes(data)
        monkeypatch.setattr(events, "_load_events_lines", _line_parser_disabled)
        assert load_events(path) == s


class TestWriter:
    @pytest.mark.parametrize("stream", [
        EventStream([], [], [], [], 5, 6),
        random_stream(np.random.default_rng(42), 10_000, 640, 480, 10**9),
        EventStream(  # t near 2**62, across more than one write chunk
            2**62 + np.sort(np.random.default_rng(1).integers(0, 10**6, 70_000)),
            np.random.default_rng(2).integers(0, 4096, 70_000),
            np.random.default_rng(3).integers(0, 4096, 70_000),
            np.random.default_rng(4).choice([-1, 1], 70_000),
            4096, 4096,
        ),
    ], ids=["empty", "10k-random", "t-near-2^62"])
    def test_bytes_match_the_seed_writer(self, tmp_path, stream):
        save_events(stream, tmp_path / "new.csv")
        save_events_oracle(stream, tmp_path / "seed.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "seed.csv").read_bytes()


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
    s = EventStream.from_events(rows, 16, 16)
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_events_matches_line_parser_fuzz(tmp_path_factory, data):
    # truncations and byte flips of a valid event CSV: both paths agree
    path = tmp_path_factory.mktemp("ev") / "ev.csv"
    save_events(random_stream(np.random.default_rng(0), 20, 16, 16, 10**6), path)
    path.write_bytes(data.draw(corrupted(path.read_bytes(), hot=32)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(load_events, path)
    assert got == _outcome(events._load_events_lines, path)
