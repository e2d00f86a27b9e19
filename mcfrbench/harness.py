"""Run one workload and turn what it measured into the benchmark's metrics.

Untraced run (`trace=False`): set up SETUP_REPEATS times (the median is
`setup_s`), then run the timed phase with the library called directly.
Its metrics are the end-to-end ones:

- setup_s      inputs, model and warm-up, median of SETUP_REPEATS set-ups
- peak_rss_mb  peak resident set of the process
- items_per_s  frames/s (track), training samples/s (train-paper),
               events/s through write + read (ingest)
- op_ms_p50    median time of one operation: a frame, a step or a window
- op_ms_tail   the highest of TAIL_PERCENTILES with at least ten operations
               beyond it; the percentile and the sample count go in the report

Times are wall times scaled to the host's nominal speed (see clock.py);
the report keeps the unscaled ones too.

Traced run (`trace=True`): set up once with every library call in a span,
check the walks, run the timed phase once untraced and once traced, and
publish the per-layer rows in PER_LAYER plus the tracing overhead (the gap
between the two phases).
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
from pathlib import Path

import numpy as np

from clock import Clock
from layers import HEAD, Calls, check_walks
from tracer import Tracer
from workloads import WORKLOADS, Phase

SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("MCFR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}

CONV = ("tau", "cfe.0", "cfe.1", "cfe.2", "uer.0", "uer.1", "uer.2", "fusion")
POOLED = ("cfe.0", "cfe.1", "uer.0", "uer.1")
SRM = ("0", "1")


def _med(values):
    return statistics.median(values) if values else None


def _per_layer_table():
    """(name, unit, better, value(tracer, durations, self_times, extra))."""
    rows = []

    def ms(span, better="lower"):
        rows.append((f"{span}.ms", "ms", better, lambda t, d, s, x: _med(d.get(span))))

    def self_ms(span):
        rows.append((f"{span}.self_ms", "ms", "lower", lambda t, d, s, x: _med(s.get(span))))

    def first(name, unit="count"):
        rows.append((name, unit, "lower", lambda t, d, s, x: t.first_round_count(name)))

    def median_count(name, unit="ratio"):
        rows.append((name, unit, "lower", lambda t, d, s, x: t.median_count(name)))

    def head_ms(span):
        # the three fc layers of one head pass: fc4, fc5 and fc6
        def value(t, d, s, x):
            parts = [_med(d.get(f"{span}.{h}")) for h in HEAD]
            return None if None in parts else sum(parts)
        rows.append((f"{span}.ms", "ms", "lower", value))

    def per_s(name, unit, numerator, span):
        def value(t, d, s, x):
            top, ms_ = numerator(t), _med(d.get(span))
            return None if top is None or not ms_ else top / (ms_ / 1e3)
        rows.append((name, unit, "higher", value))

    def extra(name, unit, better):
        rows.append((name, unit, better, lambda t, d, s, x: x.get(name)))

    ms("simulator.frames_to_events")
    first("simulator.events_out")
    ms("simulator.perturb_exposure")
    for call in ("save_events", "load_events"):
        ms(f"events.{call}")
        per_s(f"events.{call}.mb_per_s", "MB/s",
              lambda t: t.first_round_count("events.file_mb"), f"events.{call}")
    ms("frames.save_sequence")
    ms("frames.load_sequence")
    ms("stacking.stack_events")
    first("stacking.events_per_window")
    ms("stacking.assemble_input")
    ms("stacking.save_stacked")
    ms("stacking.load_stacked")
    ms("snn.encode_events_to_spikes")
    ms("snn.uee_forward_spikes")
    self_ms("snn.uee_forward_spikes")
    for i in SRM:
        ms(f"snn.srm_layer_forward.{i}")
        median_count(f"snn.spike_rate.{i}")
        first(f"snn.spikes.{i}")
    ms("snn.membrane_drive")
    for b in CONV:
        ms(f"nn.conv2d_forward.{b}")
        first(f"nn.conv2d_forward.{b}.gflop", "GFLOP")
        per_s(f"nn.conv2d_forward.{b}.gflops_per_s", "GFLOP/s",
              lambda t, b=b: t.first_round_count(f"nn.conv2d_forward.{b}.gflop"),
              f"nn.conv2d_forward.{b}")
        ms(f"nn.conv2d_backward.{b}")
        first(f"nn.im2col_mb.{b}", "MB")
    for b in POOLED:
        ms(f"nn.maxpool_forward.{b}")
        ms(f"nn.maxpool_backward.{b}")
    for b in CONV[1:]:
        median_count(f"nn.relu_dead_frac.{b}")
        first(f"nn.relu_dead.{b}")
    ms("nn.adaptive_avgpool_forward")
    ms("nn.adaptive_avgpool_forward.uee")
    head_ms("nn.fc_forward")
    head_ms("nn.fc_backward")
    ms("nn.sgd_step")
    ms("network.features_forward")
    self_ms("network.features_forward")
    ms("network.classify_features")
    ms("network.backward")
    self_ms("network.backward")
    ms("network.train_step")
    self_ms("network.train_step")
    first("network.candidates_scored")
    extra("ingest.write_events_per_s", "1/s", "higher")
    extra("ingest.read_events_per_s", "1/s", "higher")
    extra("trace.overhead.items_per_s", "%", "lower")
    extra("trace.overhead.op_ms_p50", "%", "lower")
    extra("walk.checked", "count", "higher")
    extra("walk.mismatched", "count", "lower")
    return rows


PER_LAYER = _per_layer_table()

# Rows a walk produces, withheld when that walk does not match the library.
WALK_ROWS = {
    "uee": ("snn.uee_forward_spikes", "snn.srm_layer_forward", "snn.spike",
            "snn.membrane_drive", "nn.adaptive_avgpool_forward.uee"),
    "forward": ("nn.conv2d_forward", "nn.im2col", "nn.relu_dead", "nn.maxpool_forward",
                "nn.adaptive_avgpool_forward.ms", "nn.fc_forward",
                "network.features_forward", "network.classify_features",
                "network.candidates_scored"),
    "train": ("nn.conv2d_backward", "nn.maxpool_backward", "nn.fc_backward",
              "nn.sgd_step", "network.backward", "network.train_step"),
}


def end_to_end(ph: Phase, setup_s: float, scaled: bool = True) -> tuple[dict, dict]:
    """Metrics of an untraced phase, and the tail's percentile and count.

    Times are scaled to the host's nominal speed (see clock.py) unless
    `scaled` is false.
    """
    op = sorted(ph.op_ms(scaled))
    if not op:
        raise RuntimeError("no operation completed:\n" + "\n".join(ph.errors[:3]))
    tail, percentile = _tail(op)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "items_per_s": ph.items / ph.busy_s(scaled),
        "op_ms_p50": statistics.median(op),
        "op_ms_tail": tail,
    }
    return values, {"percentile": percentile, "samples": len(op)}


def _tail(op_sorted: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES (nearest rank) with at least ten
    operations beyond it.

    With fewer than 20 operations no percentile above the median has ten
    beyond it, and the largest of a handful of times says more about the
    host than about the program, so the tail falls back to the median.
    """
    n = len(op_sorted)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return op_sorted[rank - 1], p
    return statistics.median(op_sorted), 50.0


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside
    a repository (the benchmark may run from a plain copy of the tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir,
                 scale=None) -> tuple[dict, dict, Tracer | None]:
    """Returns (result, report, tracer).

    `result` is the benchmark's output object: correct, attempted, failed
    and metrics as {name: {"value", "unit"}}. `report` holds everything
    else worth keeping (tail percentile, losses, errors, walk checks).
    """
    w = WORKLOADS[name]
    scale = scale or w.scale
    direct = Calls(None)
    report: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}

    if not trace:
        clock = Clock()
        for _ in range(SETUP_REPEATS):
            st = None  # one set of inputs alive at a time, as in one set-up
            gc.collect()
            with clock.segment():
                st = w.setup(direct, scale, seed, workdir)
        clock.probe(force=True)
        setups = [clock.scaled_s(k) for k in range(SETUP_REPEATS)]
        wall_setups = [clock.wall_s(k) for k in range(SETUP_REPEATS)]
        ph = w.timed(direct, st, seconds)
        values, report["tail"] = end_to_end(ph, statistics.median(setups))
        report["wall"], _ = end_to_end(ph, statistics.median(wall_setups), scaled=False)
        report["setup_runs_s"] = {"scaled": setups, "wall": wall_setups}
        _describe(report, "timed", ph)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        result = {"correct": ph.failed == 0, "attempted": ph.attempted,
                  "failed": ph.failed, "metrics": metrics}
        return result, report, None

    tracer = Tracer()
    st = w.setup(Calls(tracer), scale, seed, workdir)
    walks = {}
    if w.walk_inputs is not None:
        walks = check_walks(Tracer, **w.walk_inputs(direct, st))
    plain = w.timed(direct, st, seconds)
    traced = w.timed(Calls(tracer), st, seconds)
    plain_values, _ = end_to_end(plain, 0.0)
    traced_values, _ = end_to_end(traced, 0.0)
    extra = {
        "trace.overhead.items_per_s":
            100.0 * (plain_values["items_per_s"] / traced_values["items_per_s"] - 1),
        "trace.overhead.op_ms_p50":
            100.0 * (traced_values["op_ms_p50"] / plain_values["op_ms_p50"] - 1),
        "walk.checked": len(walks),
        "walk.mismatched": sum(not ok for ok in walks.values()),
    }
    if "write_segments" in plain.extra:
        for side in ("write", "read"):
            busy = sum(map(plain.clock.scaled_s, plain.extra[f"{side}_segments"]))
            extra[f"ingest.{side}_events_per_s"] = plain.items / busy
    withheld = tuple(p for walk, ok in walks.items() if not ok for p in WALK_ROWS[walk])
    durations, self_times = tracer.durations_ms(), tracer.self_ms()
    metrics = {}
    for row, unit, _, value in PER_LAYER:
        if withheld and row.startswith(withheld):
            continue
        v = value(tracer, durations, self_times, extra)
        metrics[row] = {"value": 0.0 if v is None else float(v), "unit": unit}
    report["walks"] = walks
    report["overhead"] = {"untraced": plain_values, "traced": traced_values}
    report["spans"] = {k: {"calls": len(v), "median_ms": _med(v), "self_median_ms":
                           _med(self_times[k])} for k, v in sorted(durations.items())}
    _describe(report, "untraced", plain)
    _describe(report, "traced", traced)
    failed = plain.failed + traced.failed
    result = {"correct": failed == 0 and all(walks.values()),
              "attempted": plain.attempted + traced.attempted,
              "failed": failed, "metrics": metrics}
    return result, report, tracer


def _describe(report: dict, key: str, ph: Phase) -> None:
    probes = ph.clock.probe_s
    report[key] = {
        "attempted": ph.attempted, "failed": ph.failed, "items": ph.items,
        "busy_s": ph.busy_s(True), "wall_busy_s": ph.busy_s(False),
        "op_ms": ph.op_ms(True), "wall_op_ms": ph.op_ms(False),
        "probe_ms": {"count": len(probes), "min": 1e3 * min(probes),
                     "median": 1e3 * statistics.median(probes), "max": 1e3 * max(probes)},
        "errors": ph.errors[:5],
        **{k: v for k, v in ph.extra.items() if not k.endswith("_segments")},
    }


def write_report(out_dir: Path, result: dict, report: dict, tracer) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}"
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps({"result": result, **report}, indent=1, default=str))
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")
    return path
