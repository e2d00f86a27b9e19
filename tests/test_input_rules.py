"""The input rules every loader shares (mcfr.errors): the integer text
grammar and the sensor-side check."""

import struct
import sys

import numpy as np
import pytest

from mcfr.errors import MAX_SENSOR_SIDE, ConfigError, GeometryError, McfrError, require_side
from mcfr.events import load_events
from mcfr.frames import FrameSequence, load_sequence, read_netpbm, save_sequence
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
