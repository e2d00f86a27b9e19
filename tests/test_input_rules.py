"""The input rules every loader and config shares (mcfr.errors): the
integer text grammar, the sensor-side check, and the integer, real-number
and name rules of every config."""

import dataclasses
import struct
import sys
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfr.errors import MAX_SENSOR_SIDE, ConfigError, GeometryError, McfrError, require_side
from mcfr.events import load_events
from mcfr.frames import FrameSequence, load_sequence, read_netpbm, save_sequence
from mcfr.network import AblationFlags, MCFRConfig, SRMNetSpec
from mcfr.nn import SGDConfig
from mcfr.simulator import ExposureConfig, SceneSpec, SimConfig
from mcfr.stacking import load_stacked

# field -> the value every loader reads from it, or None where every one refuses it
FIELDS = {
    "+5": None,
    "1_0": None,
    "٣": None,  # ARABIC-INDIC DIGIT THREE: a digit to str.isdigit() and int()
    " 7 ": 7,
    "007": 7,
    "0" * 5000 + "7": 7,  # leading zeros do not count
    "1" * 25: None,  # past every range a loader accepts
}


def csv_field(tmp_path, field):
    path = tmp_path / "ev.csv"
    path.write_bytes(f"{field},0,0,1\n".encode())
    return int(load_events(path, geometry=(8, 8)).t[0])


def csv_sidecar(tmp_path, field):
    path = tmp_path / "ev.csv"
    path.write_bytes(f"# {field},8\n0,0,0,1\n".encode())
    s = load_events(path)
    # a sidecar the grammar refuses is a plain comment: the events set a 1x1 grid
    return s.width if s.height == 8 else None


def timestamps_line(tmp_path, field):
    seq = FrameSequence((np.zeros((1, 1), np.uint8),) * 2, (0, 7))
    save_sequence(seq, tmp_path / "seq")
    (tmp_path / "seq" / "timestamps.txt").write_bytes(f"0\n{field}\n".encode())
    return load_sequence(tmp_path / "seq").timestamps[1]


def pgm_header(tmp_path, field):
    path = tmp_path / "f.pgm"
    path.write_bytes(f"P5 {field} 1 255\n".encode() + bytes(7))
    return read_netpbm(path).shape[1]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() has no digit limit on this Python")
@pytest.mark.parametrize("limit", [4300, 640, 0])
@pytest.mark.parametrize("place", [csv_field, csv_sidecar, timestamps_line, pgm_header],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("field", list(FIELDS), ids=lambda f: repr(f[:12]))
def test_every_loader_reads_an_integer_field_alike(tmp_path, field, place, limit):
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit)
        try:
            got = place(tmp_path, field)
        except McfrError:
            got = None
    finally:
        sys.set_int_max_str_digits(default)
    assert got == FIELDS[field]


def test_zero_side_is_a_geometry_error(tmp_path):
    pgm = tmp_path / "f.pgm"
    pgm.write_bytes(b"P5 0 3 255\n")
    dump = tmp_path / "f.mcst"
    dump.write_bytes(b"MCST" + struct.pack("<IIQQ", 3, 0, 0, 10))
    for path, load in [(pgm, read_netpbm), (dump, load_stacked)]:
        with pytest.raises(GeometryError, match="must be an integer >= 1, got 0"):
            load(path)


@pytest.mark.parametrize("value", [1, MAX_SENSOR_SIDE, np.int32(5)])
def test_require_side_accepts(value):
    require_side("side", value)


@pytest.mark.parametrize("value", [0, -1, MAX_SENSOR_SIDE + 1, 2.0, True, "3"])
@pytest.mark.parametrize("error", [GeometryError, ConfigError])
def test_require_side_refuses(value, error):
    with pytest.raises(error, match="^side "):
        require_side("side", value, error)


# the keyword arguments each config is built from; SGDConfig's lr has no default
BASE = {SimConfig: {}, ExposureConfig: {}, SceneSpec: {}, SGDConfig: {"lr": {"fc6": 1e-3}},
        SRMNetSpec: {}, MCFRConfig: {}, AblationFlags: {}}


def build(cls, field, value):
    """cls built from BASE with one field, or one item of a sequence or
    mapping field ("velocity[1]", "lr[fc6]"), set to value."""
    name, _, key = field.rstrip("]").partition("[")
    if key:
        old = BASE[cls].get(name, getattr(cls(**BASE[cls]), name))
        if isinstance(old, Mapping):
            value = {**old, key: value}
        else:
            value = [*old[:int(key)], value, *old[int(key) + 1:]]
    return cls(**{**BASE[cls], name: value})


# (class, field, an accepted value, a value out of its range or None where
# every finite real is in range)
NUMBER_FIELDS = [
    (SimConfig, "c_pos", 0.15, 0.0), (SimConfig, "c_neg", 0.15, -0.15),
    (SimConfig, "log_eps", 1.0, 0), (SimConfig, "threshold_noise_std", 0.0, -1e-9),
    (ExposureConfig, "gain_range_under[0]", 0.125, 0.0),
    (ExposureConfig, "gain_range_under[1]", 0.5, 0.1),  # below its lower end
    (ExposureConfig, "gain_range_over[0]", 2.0, -2.0),
    (ExposureConfig, "gain_range_over[1]", 8.0, 1.5),
    (SceneSpec, "width", 64, MAX_SENSOR_SIDE + 1), (SceneSpec, "height", 64, 0),
    (SceneSpec, "object_w", 12, 65),  # wider than the canvas
    (SceneSpec, "object_h", 12, 0),
    (SceneSpec, "frame_count", 60, 0), (SceneSpec, "frame_interval_us", 33_333, -1),
    (SceneSpec, "object_value", 230, 256), (SceneSpec, "background_value", 40, -1),
    (SceneSpec, "velocity[0]", 0.8, None), (SceneSpec, "velocity[1]", 0.0, None),
    (SceneSpec, "amplitude", 10.0, None), (SceneSpec, "drift", 1.0, None),
    (SceneSpec, "period", 30.0, 0.0),
    (SGDConfig, "lr[fc6]", 1e-3, -1e-3), (SGDConfig, "default_lr", 1e-4, -1e-4),
    (SGDConfig, "momentum", 0.9, -0.9), (SGDConfig, "weight_decay", 5e-4, -5e-4),
    (SRMNetSpec, "channels[0]", 16, 0), (SRMNetSpec, "channels[2]", 64, -64),
    (SRMNetSpec, "t_bins", 32, 0),
    (MCFRConfig, "input_crop", 107, MAX_SENSOR_SIDE + 1),
    (MCFRConfig, "cfe_widths[0]", 96, 0), (MCFRConfig, "uer_widths[2]", 256, -1),
    (MCFRConfig, "fc_dims[1]", 512, 0), (MCFRConfig, "fusion_channels", 512, 0),
    (MCFRConfig, "num_domains", 1, 0),
]
# (class, field, an accepted name, an unknown one)
NAME_FIELDS = [
    (ExposureConfig, "mode", "under", "bright"), (SceneSpec, "motion", "sine", "fast"),
    (MCFRConfig, "geometry", "tiny", "vgg"), (AblationFlags, "variant", "no-uee", "all"),
]
NOT_A_NUMBER = ["1", None, True, False, float("nan"), float("inf"), float("-inf")]
NOT_A_NAME = [None, True, float("nan"), float("inf"), float("-inf"), 3, ["tiny"]]


def field_rules():
    for cls, field, good, out_of_range in NUMBER_FIELDS:
        bad = NOT_A_NUMBER + ([] if out_of_range is None else [out_of_range])
        yield pytest.param(cls, field, good, bad, id=f"{cls.__name__}.{field}")
    for cls, field, good, unknown in NAME_FIELDS:
        yield pytest.param(cls, field, good, NOT_A_NAME + [unknown],
                           id=f"{cls.__name__}.{field}")


@pytest.mark.parametrize("cls,field,good,bad", field_rules())
def test_config_field_refuses_what_is_no_value_of_its_kind(cls, field, good, bad):
    # a numpy scalar is the value it holds
    as_numpy = {str: np.str_, float: np.float64, int: np.int64}[type(good)](good)
    assert build(cls, field, as_numpy) == build(cls, field, good)
    accepted = []
    for value in bad:
        try:
            build(cls, field, value)
        except ConfigError:
            continue
        accepted.append(value)
    assert accepted == []


@pytest.mark.parametrize("make", [
    pytest.param(lambda: SimConfig(c_pos="1"), id="SimConfig(c_pos='1')"),
    pytest.param(lambda: SimConfig(log_eps=True), id="SimConfig(log_eps=True)"),
    pytest.param(lambda: ExposureConfig(gain_range_under=("a", "b")),
                 id="ExposureConfig(gain_range_under=('a', 'b'))"),
    pytest.param(lambda: SceneSpec(velocity=("a", 0)), id="SceneSpec(velocity=('a', 0))"),
    pytest.param(lambda: SceneSpec(amplitude=None), id="SceneSpec(amplitude=None)"),
    pytest.param(lambda: SceneSpec(period="3"), id="SceneSpec(period='3')"),
    pytest.param(lambda: SceneSpec(drift=True), id="SceneSpec(drift=True)"),
    pytest.param(lambda: SGDConfig(lr={}, momentum=True), id="SGDConfig(momentum=True)"),
    pytest.param(lambda: SGDConfig(lr={1: 0.1}), id="SGDConfig(lr={1: 0.1})"),
    pytest.param(lambda: dataclasses.replace(MCFRConfig.tiny(), ablation="no-uee"),
                 id="MCFRConfig(ablation='no-uee')"),
    pytest.param(lambda: dataclasses.replace(MCFRConfig.tiny(),
                                             uee={"channels": [3, 4], "t_bins": 4}),
                 id="MCFRConfig(uee=dict)"),
])
def test_value_that_once_leaked_or_passed_refused(make):
    # each raised TypeError, was accepted as a number, or built a config
    # whose first use raised TypeError or AttributeError
    with pytest.raises(ConfigError):
        make()


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from(["linear", "sine", "under", "over", "random", "paper", "tiny",
                     "full", "no-uee", "fc6"]),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
)
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4), st.lists(SCALARS, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers(), st.none()), SCALARS,
                    max_size=2),
)
CONFIG_FIELDS = [(cls, f.name) for cls in BASE for f in dataclasses.fields(cls)]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_any_field_value_builds_or_is_a_config_error(data):
    cls, field = data.draw(st.sampled_from(CONFIG_FIELDS))
    value = data.draw(VALUES)
    try:
        build(cls, field, value)
    except ConfigError:
        pass
    except GeometryError as exc:
        # a crop too small for the geometry's convolutions is a geometry fault
        assert (cls, field) == (MCFRConfig, "input_crop") and "collapses" in str(exc)
