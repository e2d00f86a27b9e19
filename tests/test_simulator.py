import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfr.errors import MAX_SENSOR_SIDE, ConfigError, EventParseError, GeometryError, McfrError
from mcfr.events import load_events
from mcfr.frames import (
    FrameSequence,
    load_groundtruth,
    load_sequence,
    read_netpbm,
    save_sequence,
    to_luminance,
    write_netpbm,
)
from mcfr.simulator import (
    ExposureConfig,
    SceneSpec,
    SimConfig,
    frames_to_events,
    gen_synthetic_sequence,
    perturb_exposure,
)

from .oracles import frames_to_events_oracle, perturb_exposure_oracle
from .strategies import corrupted


def seq_from_values(values, interval=1000):
    """Single-pixel image sequence from raw intensity values."""
    frames = tuple(np.array([[v]], dtype=np.uint8) for v in values)
    return FrameSequence(frames=frames, timestamps=tuple(
        i * interval for i in range(len(values))
    ))


def log_intensity(value, log_eps=1.0):
    return float(np.log(value + log_eps))


def value_for_delta(v0, delta_log, log_eps=1.0):
    """Intensity whose log gap from v0 is delta_log (may be fractional)."""
    return float(np.exp(np.log(v0 + log_eps) + delta_log) - log_eps)


class TestFramesToEvents:
    def test_three_positive_crossings_with_exact_times(self):
        # one pixel, log step ~+0.47 with c_pos = 0.15: three upward crossings
        cfg = SimConfig(c_pos=0.15, c_neg=0.15)
        v1 = value_for_delta(100, 0.47)
        frames = (
            np.array([[100]], dtype=np.uint8),
            np.array([[round(v1)]], dtype=np.uint8),
        )
        # uint8 rounding shifts the delta; compute the exact delta actually encoded
        seq = FrameSequence(frames=frames, timestamps=(0, 3000))
        d = log_intensity(float(frames[1][0, 0])) - log_intensity(100.0)
        assert d > 0.45
        stream = frames_to_events(seq, cfg, seed=0)
        n_expected = int(d / 0.15 + 1e-9)
        assert len(stream) == n_expected == 3
        assert list(stream.p) == [1, 1, 1]
        expected_times = [
            min(int(round(3000 * (k + 1) * 0.15 / d)), 2999) for k in range(3)
        ]
        assert list(stream.t) == expected_times

    def test_identical_frames_no_events(self):
        seq = seq_from_values([113, 113, 113])
        stream = frames_to_events(seq, SimConfig(), seed=0)
        assert len(stream) == 0

    def test_single_negative_crossing(self):
        cfg = SimConfig(c_pos=0.15, c_neg=0.15)
        v1 = value_for_delta(100, -0.20)
        frames = (
            np.array([[100]], dtype=np.uint8),
            np.array([[round(v1)]], dtype=np.uint8),
        )
        seq = FrameSequence(frames=frames, timestamps=(0, 1000))
        stream = frames_to_events(seq, cfg, seed=0)
        assert len(stream) == 1
        assert stream.p[0] == -1

    def test_rejects_single_frame(self):
        with pytest.raises(ConfigError):
            frames_to_events(seq_from_values([10]), SimConfig(), seed=0)

    def test_conservation_on_random_sequences(self):
        # per-pixel residual below one threshold, zero threshold noise
        rng = np.random.default_rng(3)
        cfg = SimConfig(c_pos=0.2, c_neg=0.25)
        for _ in range(5):
            frames = tuple(
                rng.integers(0, 256, size=(6, 7)).astype(np.uint8) for _ in range(5)
            )
            seq = FrameSequence(
                frames=frames, timestamps=tuple(i * 500 for i in range(5))
            )
            stream = frames_to_events(seq, cfg, seed=0)
            l_first = np.log(to_luminance(frames[0]) + cfg.log_eps)
            l_last = np.log(to_luminance(frames[-1]) + cfg.log_eps)
            mass = np.zeros_like(l_first)
            for x, y, p in zip(stream.x, stream.y, stream.p):
                mass[y, x] += cfg.c_pos if p == 1 else -cfg.c_neg
            residual = (l_last - l_first) - mass
            assert np.all(np.abs(residual) < max(cfg.c_pos, cfg.c_neg))

    def test_timestamps_inside_span_and_sorted(self):
        rng = np.random.default_rng(11)
        frames = tuple(
            rng.integers(0, 256, size=(5, 5)).astype(np.uint8) for _ in range(4)
        )
        seq = FrameSequence(frames=frames, timestamps=(100, 600, 1100, 1600))
        stream = frames_to_events(seq, SimConfig(), seed=0)
        assert len(stream) > 0
        assert stream.t.min() >= 100
        assert stream.t.max() < 1600
        assert np.all(np.diff(stream.t) >= 0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        frames = tuple(
            rng.integers(0, 256, size=(4, 4)).astype(np.uint8) for _ in range(3)
        )
        seq = FrameSequence(frames=frames, timestamps=(0, 400, 800))
        cfg = SimConfig(threshold_noise_std=0.05)
        a = frames_to_events(seq, cfg, seed=9)
        b = frames_to_events(seq, cfg, seed=9)
        assert a == b
        c = frames_to_events(seq, cfg, seed=10)
        assert len(c) != len(a) or not np.array_equal(a.t, c.t) or a == c


@st.composite
def small_sequences(draw):
    """2-4 random uint8 frames, gray or color, up to 4x4, at random intervals."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    n = draw(st.integers(2, 4))
    frames = tuple(
        np.array(draw(st.lists(st.integers(0, 255), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape)))), dtype=np.uint8).reshape(shape)
        for _ in range(n)
    )
    gaps = draw(st.lists(st.integers(1, 5000), min_size=n - 1, max_size=n - 1))
    return FrameSequence(frames=frames, timestamps=tuple(np.cumsum([0, *gaps]).tolist()))


@settings(max_examples=150, deadline=None)
@given(
    seq=small_sequences(),
    c_pos=st.sampled_from([0.05, 0.15, 0.3]),
    c_neg=st.sampled_from([0.05, 0.15, 0.3]),
    noise=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**16),
)
def test_frames_to_events_matches_scalar_oracle(seq, c_pos, c_neg, noise, seed):
    cfg = SimConfig(c_pos=c_pos, c_neg=c_neg, threshold_noise_std=noise)
    stream = frames_to_events(seq, cfg, seed)
    t, x, y, p = frames_to_events_oracle(seq, cfg, seed)
    assert stream.t.tolist() == t
    assert stream.x.tolist() == x
    assert stream.y.tolist() == y
    assert stream.p.tolist() == p


def shifted(seq, shift):
    return FrameSequence(seq.frames, tuple(t + shift for t in seq.timestamps))


@settings(max_examples=150, deadline=None)
@given(seq=small_sequences(), data=st.data())
def test_frames_to_events_shift_moves_only_event_times(seq, data):
    # an event's time is an offset from the frame before it, so shifting every
    # frame time, as far as int64 reaches, shifts every event time alike
    top = 2**63 - 1 - seq.timestamps[-1]
    shift = data.draw(st.integers(0, top) | st.integers(2**53, top), label="shift")
    base = frames_to_events(seq, SimConfig(), 0)
    moved = frames_to_events(shifted(seq, shift), SimConfig(), 0)
    assert moved.t.tolist() == [t + shift for t in base.t.tolist()]
    for name in "xyp":
        assert np.array_equal(getattr(moved, name), getattr(base, name))


@pytest.mark.parametrize("ta", [2**53, 2**62, 2**63 - 1000])
def test_frames_to_events_keeps_offsets_past_float64_integers(ta):
    # a float64 time past 2**53 rounded the offsets to {0, 998} at 2**62,
    # and past int64 near 2**63 - 1000
    a = (np.arange(16, dtype=np.uint8) * 16).reshape(4, 4)
    seq = FrameSequence((a, 255 - a), (0, 999))
    base = frames_to_events(seq, SimConfig(), 0)
    moved = frames_to_events(shifted(seq, ta), SimConfig(), 0)
    assert len(set(base.t.tolist())) > 100
    assert (moved.t - ta).tolist() == base.t.tolist()


class TestPerturbExposure:
    def test_identity_gain(self):
        seq = seq_from_values([100, 200])
        cfg = ExposureConfig(gain_range_under=(1.0, 1.0), mode="under")
        out = perturb_exposure(seq, cfg, seed=0)
        for a, b in zip(out.frames, seq.frames):
            assert np.array_equal(a, b)

    def test_clamp_at_255(self):
        seq = seq_from_values([100])
        cfg = ExposureConfig(gain_range_over=(4.0, 4.0), mode="over")
        out = perturb_exposure(seq, cfg, seed=0)
        assert out.frames[0][0, 0] == 255

    def test_quarter_gain(self):
        seq = seq_from_values([100])
        cfg = ExposureConfig(gain_range_under=(0.25, 0.25), mode="under")
        out = perturb_exposure(seq, cfg, seed=0)
        assert out.frames[0][0, 0] == 25

    def test_deterministic(self):
        seq = seq_from_values([60, 120, 180])
        cfg = ExposureConfig(mode="random")
        a = perturb_exposure(seq, cfg, seed=4)
        b = perturb_exposure(seq, cfg, seed=4)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa, fb)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown exposure mode 'bright'"):
            ExposureConfig(mode="bright")

    @pytest.mark.parametrize("mode", ["under", "over", "random"])
    def test_matches_three_way_branch(self, mode):
        seq = seq_from_values([0, 60, 120, 180, 255, 7, 99, 200])
        cfg = ExposureConfig(mode=mode)
        for seed in range(6):
            got = perturb_exposure(seq, cfg, seed).frames
            for a, b in zip(got, perturb_exposure_oracle(seq, cfg, seed), strict=True):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("cls,kwargs", [
    (SceneSpec, dict(motion="sine", period=0)),
    (SceneSpec, dict(frame_interval_us=0)),
    (SceneSpec, dict(object_w=0)),
    (SceneSpec, dict(object_h=0)),
    (SceneSpec, dict(object_value=300)),
    (SceneSpec, dict(background_value=-1)),
    (SceneSpec, dict(velocity=(math.nan, 0.0))),
    (SceneSpec, dict(motion="sine", amplitude=math.inf)),
    (SceneSpec, dict(motion="sine", drift=math.nan)),
    (SimConfig, dict(c_pos=math.nan)),
    (SimConfig, dict(c_pos=math.inf, c_neg=math.inf)),
    (SimConfig, dict(threshold_noise_std=math.nan)),
    (SimConfig, dict(log_eps=math.nan)),
    (ExposureConfig, dict(gain_range_over=(2.0, math.nan))),
    (ExposureConfig, dict(gain_range_under=(0.1, math.inf))),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_config_that_cannot_be_simulated_rejected(cls, kwargs):
    with pytest.raises(ConfigError):
        cls(**kwargs)


@pytest.mark.parametrize("cls,field,value", [
    (SceneSpec, "velocity", [1.0, 0.0]),
    (ExposureConfig, "gain_range_under", [0.1, 0.5]),
    (ExposureConfig, "gain_range_over", [2.0, 4.0]),
])
def test_pair_given_as_a_list_stored_as_a_tuple(cls, field, value):
    # a list left in a frozen config would make it unhashable
    config = cls(**{field: value})
    assert getattr(config, field) == tuple(value)
    assert config == cls(**{field: tuple(value)})
    assert hash(config) == hash(cls(**{field: tuple(value)}))


@pytest.mark.parametrize("cls,kwargs", [
    (SceneSpec, dict(velocity=5)), (SceneSpec, dict(velocity="ab")),
    (SceneSpec, dict(velocity=np.array([1.0, 0.0]))),
    (ExposureConfig, dict(gain_range_under=(0.1,))),
    (ExposureConfig, dict(gain_range_over=2.0)),
    (ExposureConfig, dict(gain_range_over=[2.0, 4.0, 8.0])),
], ids=repr)
def test_pair_that_is_no_list_or_tuple_of_two_refused(cls, kwargs):
    with pytest.raises(ConfigError, match="list or tuple of 2 items"):
        cls(**kwargs)


class TestSyntheticScene:
    def test_linear_motion_groundtruth(self):
        spec = SceneSpec(
            width=64, height=64, object_w=12, object_h=12,
            frame_count=40, motion="linear", velocity=(1.0, 0.0),
        )
        seq, boxes = gen_synthetic_sequence(spec, seed=0)
        assert len(seq) == 40
        x0 = boxes[0, 0]
        for i in range(40):
            assert boxes[i, 0] == x0 + i
            assert boxes[i, 2] == 12 and boxes[i, 3] == 12

    def test_static_object(self):
        spec = SceneSpec(frame_count=5, motion="linear", velocity=(0.0, 0.0))
        _, boxes = gen_synthetic_sequence(spec, seed=0)
        assert np.all(boxes == boxes[0])

    def test_sine_motion_groundtruth(self):
        spec = SceneSpec(
            frame_count=30, motion="sine", amplitude=10.0, period=30.0, drift=0.0
        )
        _, boxes = gen_synthetic_sequence(spec, seed=0)
        y0 = (64 - 12) / 2.0
        for i in range(30):
            expect = int(round(y0 + 10.0 * np.sin(2.0 * np.pi * i / 30.0)))
            assert boxes[i, 1] == expect

    def test_unknown_motion_rejected(self):
        with pytest.raises(ConfigError, match="unknown scene motion 'fast'"):
            SceneSpec(motion="fast")

    @pytest.mark.parametrize("kwargs", [
        dict(width=64.0), dict(height=64.5), dict(object_w=12.0), dict(object_h=True),
        dict(frame_count=5.0), dict(frame_interval_us=1.5), dict(object_value=230.0),
        dict(velocity=(1.0,)), dict(velocity=(1.0, 0.0, 0.0)),
    ], ids=repr)
    def test_non_integer_fields_and_short_velocity_rejected(self, kwargs):
        # each would fail later with a bare TypeError or IndexError, or
        # give float timestamps that load_sequence refuses once saved
        with pytest.raises(ConfigError):
            SceneSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(width=MAX_SENSOR_SIDE + 1),
                                        dict(height=MAX_SENSOR_SIDE + 1),
                                        dict(width=0), dict(height=-1)], ids=repr)
    def test_canvas_outside_the_sensor_side_limit_rejected(self, kwargs):
        spec = dict(width=8, height=8, object_w=4, object_h=4, frame_count=2)
        with pytest.raises(ConfigError, match="SceneSpec"):
            SceneSpec(**{**spec, **kwargs})
        side = dict(width=MAX_SENSOR_SIDE, height=MAX_SENSOR_SIDE)
        assert SceneSpec(**{**spec, **side}).width == MAX_SENSOR_SIDE

    def test_object_larger_than_canvas_rejected(self):
        with pytest.raises(ConfigError):
            SceneSpec(width=10, height=10, object_w=12, object_h=12)

    def test_rendered_rectangle_matches_gt(self):
        spec = SceneSpec(frame_count=3, background_texture=False)
        seq, boxes = gen_synthetic_sequence(spec, seed=0)
        x, y, w, h = (int(v) for v in boxes[1])
        frame = seq.frames[1]
        inside = frame[y : y + h, x : x + w]
        assert inside.max() == spec.object_value
        assert frame[0, 0] == spec.background_value


class TestSequenceDiskRoundTrip:
    def test_save_load_gray(self, tmp_path):
        spec = SceneSpec(frame_count=4)
        seq, boxes = gen_synthetic_sequence(spec, seed=1)
        save_sequence(seq, tmp_path / "seq", boxes)
        back = load_sequence(tmp_path / "seq")
        assert len(back) == 4
        assert back.timestamps == seq.timestamps
        for a, b in zip(back.frames, seq.frames):
            assert np.array_equal(a, b)

    def test_save_load_color(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = tuple(
            rng.integers(0, 256, size=(6, 8, 3)).astype(np.uint8) for _ in range(2)
        )
        seq = FrameSequence(frames=frames, timestamps=(0, 100))
        save_sequence(seq, tmp_path / "c")
        back = load_sequence(tmp_path / "c")
        assert back.is_color
        for a, b in zip(back.frames, seq.frames):
            assert np.array_equal(a, b)



class TestFrameSequence:
    @pytest.mark.parametrize("timestamps", [(0, 1.5), (0.0, 1), (0, True)])
    def test_non_integer_timestamps_rejected(self, timestamps):
        frames = (np.zeros((2, 3), np.uint8),) * 2
        with pytest.raises(ValueError, match="timestamp must be an integer"):
            FrameSequence(frames, timestamps)

    @pytest.mark.parametrize("timestamps", [(0, 2**70), (-2**63 - 1, 0), (0, 2**63)])
    def test_timestamps_outside_int64_rejected(self, timestamps):
        # the simulator casts frame times to int64: 2**70 became 0 there
        frames = (np.zeros((4, 4), np.uint8), np.full((4, 4), 200, np.uint8))
        with pytest.raises(ValueError, match="a timestamp must be an integer "
                           r"(>= -9223372036854775808|<= 9223372036854775807), got"):
            FrameSequence(frames, timestamps)
        assert len(FrameSequence(frames, (-2**63, 2**63 - 1))) == 2

    def test_numpy_integer_timestamps(self):
        frames = (np.zeros((2, 3), np.uint8),) * 2
        assert len(FrameSequence(frames, (np.int64(0), np.int64(5)))) == 2

    @pytest.mark.parametrize("shape", [
        (4, 5, 4), (4, 5, 1), (2, 3, 4, 3), (5,), (), (0, 5), (4, 0, 3),
        (MAX_SENSOR_SIDE + 1, 1),
    ], ids=str)
    def test_frames_no_function_can_use_rejected(self, shape):
        # only (H, W) and (H, W, 3) have a PGM/PPM form and a luminance,
        # and a 1-D frame has no width
        frames = (np.zeros(shape, np.uint8),) * 2
        with pytest.raises(GeometryError):
            FrameSequence(frames, (0, 5))


class TestSequenceLoaderFaults:
    @pytest.fixture
    def seq_dir(self, tmp_path):
        seq, boxes = gen_synthetic_sequence(SceneSpec(frame_count=3), seed=0)
        save_sequence(seq, tmp_path / "seq", boxes)
        return tmp_path / "seq"

    @pytest.mark.parametrize("text,message", [
        ("0\n1000\n", "count mismatch"),
        ("0\n1000\n1000\n", "strictly increasing"),
        ("0\n1000\n2e3\n", "line 3: not an int64 decimal timestamp"),
        ("0\n1000\n9223372036854775808\n", "must be an integer <= 9223372036854775807"),
    ])
    def test_timestamps_named_fault(self, seq_dir, text, message):
        (seq_dir / "timestamps.txt").write_text(text)
        with pytest.raises(McfrError, match=f"timestamps.txt: .*{message}"):
            load_sequence(seq_dir)

    @pytest.mark.parametrize("text,line", [
        ("1,2,3,4\n1,2,x,4\n", 2),  # non-numeric field
        ("1,2,3,4\n1,2,3\n1,2,3,4\n", 2),  # ragged row
        ("1,2,3,4,5\n", 1),
        ("1,2,3,4\x0c5,6,7,8\n", 1),  # a form feed does not end a line
        ("1,2,3,4\n\x0b\nnan,1,1,1\n", 3),  # nor does a vertical tab
    ])
    def test_groundtruth_named_fault(self, seq_dir, text, line):
        (seq_dir / "groundtruth.txt").write_text(text)
        with pytest.raises(McfrError, match=f"groundtruth.txt: line {line}:"):
            load_groundtruth(seq_dir)

    @pytest.mark.parametrize("row", [
        "nan,1,2,3", "1,inf,2,3", "1,2,-4,inf", "1,2,0,3", "1,2,3,-0.5",
    ])
    def test_groundtruth_box_must_be_finite_and_positive(self, seq_dir, row):
        (seq_dir / "groundtruth.txt").write_text(f"1,2,3,4\n{row}\n")
        with pytest.raises(McfrError, match="groundtruth.txt: line 2:"):
            load_groundtruth(seq_dir)

    def test_groundtruth_round_trip(self, seq_dir):
        _, boxes = gen_synthetic_sequence(SceneSpec(frame_count=3), seed=0)
        assert np.allclose(load_groundtruth(seq_dir), boxes, atol=1e-6)


# one layout of lines for each text loader: "{0}" is a valid line, and the
# bad line x comes at the line named
LINE_LAYOUTS = [
    ("crlf", "{0}\r\n{0}\r\nx\r\n", 3),
    ("cr", "{0}\r{0}\rx\r", 3),
    ("blank and whitespace-only", "{0}\n\n  \n\t\n{0}\n \t \nx\n", 7),
    ("no final newline", "{0}\n{0}\nx", 3),
    ("crlf and blank", "\r\n{0}\r\n\r\n\r{0}\nx", 6),
]


@pytest.mark.parametrize("layout,line", [c[1:] for c in LINE_LAYOUTS],
                         ids=[c[0] for c in LINE_LAYOUTS])
def test_text_loaders_name_the_same_line(tmp_path, layout, line):
    save_sequence(FrameSequence((np.zeros((2, 3), np.uint8),) * 2, (0, 1000)),
                  tmp_path, boxes=[(0, 0, 1, 1)] * 2)
    (tmp_path / "events.csv").write_bytes(layout.format("0,1,1,1").encode())
    with pytest.raises(EventParseError, match=f"^line {line}:"):
        load_events(tmp_path / "events.csv")
    (tmp_path / "timestamps.txt").write_bytes(layout.format("0").encode())
    with pytest.raises(McfrError, match=f"timestamps.txt: line {line}:"):
        load_sequence(tmp_path)
    (tmp_path / "groundtruth.txt").write_bytes(layout.format("1,2,3,4").encode())
    with pytest.raises(McfrError, match=f"groundtruth.txt: line {line}:"):
        load_groundtruth(tmp_path)


RASTER = bytes(range(12))  # a 4x3 PGM raster


class TestNetpbmHeaderFaults:
    @pytest.mark.parametrize("data,message", [
        (b"P5\n", "truncated header"),
        (b"P5 4 3", "truncated header"),
        (b"P6 4 # comment", "truncated header"),
        (b"P5 4 x3 255\n" + bytes(12), "non-numeric"),
        (b"P5 0 3 255\n", "width must be an integer >= 1, got 0"),
        (b"P5 4 -3 255\n" + bytes(12), "height must be an integer >= 1, got -3"),
        (b"P5 4 3 255\n" + bytes(11), "truncated raster"),
    ])
    def test_named_fault(self, tmp_path, data, message):
        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        with pytest.raises(McfrError, match=message):
            read_netpbm(path)

    @pytest.mark.parametrize("data,outcome", [
        (b"P5#a\n4 #b\n3\t#c\n255\n" + RASTER, (3, 4)),
        (b"P5 # ends in CR\r4 3 255\n" + RASTER, (3, 4)),
        (b"P5 4#3 3 255\n" + RASTER, "non-numeric header field"),
        (b"P5 4 3 # runs to the end", "truncated header"),
        (b"P5\t4\r3\t255\r" + RASTER, (3, 4)),
        (b"P5 4 3 255" + RASTER, "non-numeric header field"),  # the raster joins maxval
    ], ids=["comment between each pair", "comment ends in CR", "4#3 is one token",
            "comment to the end", "tab and CR separators", "no whitespace after maxval"])
    def test_header_outcome(self, tmp_path, data, outcome):
        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        if isinstance(outcome, str):
            with pytest.raises(McfrError, match=outcome):
                read_netpbm(path)
        else:
            expected = np.frombuffer(RASTER, np.uint8).reshape(outcome)
            assert np.array_equal(read_netpbm(path), expected)

    @pytest.mark.parametrize("w,h", [(MAX_SENSOR_SIDE + 1, 1), (1, MAX_SENSOR_SIDE + 1)])
    def test_side_over_cap(self, tmp_path, w, h):
        # a complete raster, so only the cap can refuse it
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5 %d %d 255\n" % (w, h) + bytes(w * h))
        with pytest.raises(GeometryError, match=f"must be an integer <= {MAX_SENSOR_SIDE}, got"):
            read_netpbm(path)

    def test_side_at_cap_loads(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5 %d 1 255\n" % MAX_SENSOR_SIDE + bytes(MAX_SENSOR_SIDE))
        assert read_netpbm(path).shape == (1, MAX_SENSOR_SIDE)


@pytest.mark.parametrize("shape", [(3, 5), (4, 2, 3)])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_netpbm_fuzz(tmp_path_factory, shape, data):
    # truncations and byte flips of a valid PGM/PPM: only McfrError leaves
    path = tmp_path_factory.mktemp("pnm") / "f.pnm"
    write_netpbm(path, np.arange(np.prod(shape), dtype=np.uint8).reshape(shape))
    path.write_bytes(data.draw(corrupted(path.read_bytes(), hot=12)))
    try:
        read_netpbm(path)
    except McfrError:
        pass


@pytest.mark.parametrize("name,loader", [("timestamps.txt", load_sequence),
                                         ("groundtruth.txt", load_groundtruth)])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sequence_text_fuzz(tmp_path_factory, name, loader, data):
    # random bytes, or byte flips and truncations of the valid file, in one
    # text file of a saved two-frame sequence: only McfrError leaves
    directory = tmp_path_factory.mktemp("seq")
    save_sequence(FrameSequence((np.zeros((2, 3), np.uint8),) * 2, (0, 1000)),
                  directory, boxes=[(0, 0, 1, 1), (1, 0, 1.5, 2)])
    valid = (directory / name).read_bytes()
    (directory / name).write_bytes(data.draw(st.one_of(
        st.binary(max_size=64), corrupted(valid, hot=len(valid)))))
    try:
        loader(directory)
    except McfrError:
        pass
