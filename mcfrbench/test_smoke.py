"""Smoke test of the benchmark at tiny size.

    python -m pytest -q mcfrbench

Every workload runs with MCFRConfig.tiny() on a 40x32 scene for zero
seconds, so it does only its minimum number of operations, untraced and
traced. The tests check that every metric named in BENCHMARK.json comes
out with its unit, and that a corrupted output is counted as a failed
operation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import harness  # noqa: E402
from layers import Calls  # noqa: E402
from mcfr.events import EventStream  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_matches_harness():
    assert sorted(NAMES) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in harness.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_emitted_with_unit(name, trace, tmp_path):
    result, report, _ = harness.run_workload(
        name, 5, 0, trace, tmp_path, scale=WORKLOADS[name].tiny)
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert all(report["walks"].values())
        assert result["metrics"]["walk.mismatched"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _run_corrupted(name, tmp_path, attribute, corrupt):
    """Run the timed phase with one library call's output corrupted."""
    w = WORKLOADS[name]
    st = w.setup(Calls(None), w.tiny, 5, tmp_path)
    calls = Calls(None)
    setattr(calls, attribute, corrupt(getattr(calls, attribute)))
    return w.timed(calls, st, 0)


def _first_call_only(bad):
    def wrap(fn):
        seen = []

        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append(1)
            return bad(out) if len(seen) == 1 else out
        return call
    return wrap


def test_track_counts_nan_logits_as_failed(tmp_path):
    ph = _run_corrupted("track", tmp_path, "classify_features",
                        _first_call_only(lambda out: (out[0] * np.nan, out[1])))
    assert ph.failed == 1 and ph.attempted > 1


def test_track_counts_batch_disagreement_as_failed(tmp_path):
    def shift(out):
        logits, cache = out
        return logits + 1e-3, cache
    ph = _run_corrupted("track", tmp_path, "classify_features", _first_call_only(shift))
    assert ph.failed == 1 and ph.attempted > 1


def test_train_counts_nonfinite_loss_as_failed(tmp_path):
    ph = _run_corrupted("train-paper", tmp_path, "train_step",
                        _first_call_only(lambda loss: float("inf")))
    assert ph.failed >= 1


def test_ingest_counts_altered_events_as_failed(tmp_path):
    def flip_last(stream):
        p = stream.p.copy()
        p[-1] = -p[-1]
        return EventStream(stream.t, stream.x, stream.y, p, stream.width, stream.height)
    ph = _run_corrupted("ingest", tmp_path, "load_events", _first_call_only(flip_last))
    windows = WORKLOADS["ingest"].tiny.scene.frame_count - 1
    assert ph.failed == windows and ph.attempted > windows


def test_ingest_counts_altered_stacked_dump_as_failed(tmp_path):
    def bump(out):
        planes, window, w, h = out
        return planes + np.float32(1e-3), window, w, h
    ph = _run_corrupted("ingest", tmp_path, "load_stacked", _first_call_only(bump))
    assert ph.failed == 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "mcfrbench", tmp_path / "mcfrbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mcfrbench/run.py", "--workload", "track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_walk_that_drifts_is_flagged_and_withheld(tmp_path, monkeypatch):
    import layers

    relu = layers.Walk._relu

    def drifting_relu(self, block, x):
        y, mask = relu(self, block, x)
        return y * (1 + 1e-12), mask
    monkeypatch.setattr(layers.Walk, "_relu", drifting_relu)
    result, report, _ = harness.run_workload(
        "track", 5, 0, True, tmp_path, scale=WORKLOADS["track"].tiny)
    assert not result["correct"]
    assert report["walks"] == {"uee": True, "forward": False, "train": False}
    assert result["metrics"]["walk.mismatched"]["value"] == 2
    assert "network.features_forward.ms" not in result["metrics"]
    assert "network.train_step.ms" not in result["metrics"]
    assert "snn.uee_forward_spikes.ms" in result["metrics"]
