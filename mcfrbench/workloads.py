"""The three benchmark workloads: track, train-paper and ingest.

Each workload has a `setup(calls, scale, seed, workdir)` that builds its
inputs from the seed and warms up, a `timed(calls, state, seconds)` that
runs operations until `seconds` have passed and checks every output, and
a `walk_inputs(calls, state)` that gives the traced run's walk checks a small
batch (None when the workload runs no network). An operation is a frame
(track), a step (train-paper) or a window (ingest); it fails if it raises
or if its output fails its check.

The load is closed-loop from one thread: the next operation starts when
the previous one has finished.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from clock import Clock
from mcfr import network, stacking
from mcfr.events import TimeWindow
from mcfr.frames import FrameSequence, to_luminance
from mcfr.network import MCFRConfig, MCFRModel, TrainBatch, default_sgd_config
from mcfr.nn import SGDState
from mcfr.simulator import ExposureConfig, SceneSpec, SimConfig
from mcfr.snn import SRMParams

# Candidate jitter (track) in units of the object's larger side: the
# Gaussian's std, and the distance up to which a candidate is a positive.
JITTER_STD = 0.25
POSITIVE_RADIUS = 0.15

MOTIONS = ("linear", "sine")
EXPOSURES = ("normal", "over")


@dataclass
class Phase:
    """Operations of one timed phase and what they produced.

    Every timed block is a segment of `clock`; an operation is made of one
    or more segments, and ops[k] lists those of the k-th completed one.
    """

    clock: Clock = field(default_factory=Clock)
    ops: list[list[int]] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    items: float = 0.0
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def done(self, segments: list[int], ok: bool, items: float) -> None:
        self.ops.append(segments)
        self.ok.append(ok)
        self.items += items

    def fail(self) -> None:
        self.ok.append(False)
        self.errors.append(traceback.format_exc(limit=3))

    def op_ms(self, scaled: bool) -> list[float]:
        time = self.clock.scaled_s if scaled else self.clock.wall_s
        return [1e3 * sum(time(i) for i in op) for op in self.ops]

    def busy_s(self, scaled: bool) -> float:
        return self.clock.total_s(scaled)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def _corner(center, size: int, width: int, height: int) -> tuple[int, int]:
    """Top-left of the size x size window centred on `center`, kept inside."""
    x = min(max(int(round(center[0] - size / 2)), 0), width - size)
    y = min(max(int(round(center[1] - size / 2)), 0), height - size)
    return x, y


# ---------------------------------------------------------------- track


@dataclass(frozen=True)
class TrackScale:
    config: MCFRConfig
    scene: SceneSpec
    candidates: int = 64
    update_every: int = 10
    min_frames: int = 40  # enough for a p75 tail with ten frames beyond it


TRACK = TrackScale(
    config=MCFRConfig.reduced(),
    scene=SceneSpec(width=240, height=180, object_w=40, object_h=40,
                    frame_count=60, motion="sine", amplitude=40.0,
                    period=30.0, drift=2.5),
)


def track_setup(c, scale: TrackScale, seed: int, workdir=None) -> dict:
    cfg = scale.config
    seq, boxes = c.gen_synthetic_sequence(scale.scene, seed)
    stream = c.frames_to_events(seq, SimConfig(), seed)
    model = MCFRModel.initialize(cfg, seed)
    rng = np.random.default_rng(seed)
    size = cfg.input_crop
    obj = max(scale.scene.object_w, scale.scene.object_h)
    centres = boxes[:, :2] + boxes[:, 2:] / 2
    jitter = rng.normal(0.0, JITTER_STD * obj, (len(seq), scale.candidates, 2))
    corners = np.array([
        [_corner(ctr + d, size, seq.width, seq.height) for d in frame_jitter]
        for ctr, frame_jitter in zip(centres, jitter)
    ])
    dist = np.linalg.norm(corners + size / 2 - centres[:, None], axis=2)
    st = {
        "scale": scale, "seq": seq, "stream": stream, "model": model,
        "corners": corners,
        "labels": (dist <= POSITIVE_RADIUS * obj).astype(np.int64),
        "probe": rng.integers(0, scale.candidates, len(seq)),
        "sgd": default_sgd_config(), "sgd_state": SGDState(),
    }
    # warm-up: score one frame and run one update on a throwaway copy
    crops, uee, _ = _score_frame(c, st, 1)
    c.train_step(model.copy(), TrainBatch(crops, uee, st["labels"][1]), 0,
                 st["sgd"], SGDState())
    return st


def _score_frame(c, st, i):
    seq, stream, model = st["seq"], st["stream"], st["model"]
    cfg = model.config
    size, hw = cfg.input_crop, cfg.feature_hw
    window = TimeWindow(seq.timestamps[i - 1], seq.timestamps[i])
    stacked = c.stack_events(stream, window)
    x7 = c.assemble_input(c.to_rgb01(seq.frames[i]), stacked)
    spikes = c.encode_events_to_spikes(stream, window, cfg.uee.srm_params())
    corners = st["corners"][i]
    crops = np.stack([x7[:, y : y + size, x : x + size] for x, y in corners])
    uee = np.stack([
        c.uee_forward_spikes(spikes[:, y : y + size, x : x + size], model.uee, hw)
        for x, y in corners
    ])
    feat, _ = c.features_forward(model, crops, uee)
    logits, _ = c.classify_features(model, feat, 0)
    return crops, uee, logits


def _logits_ok(st, crops, uee, logits, i) -> bool:
    """Finite logits, and one candidate scored alone agrees with the batch."""
    if not np.all(np.isfinite(logits)):
        return False
    k = st["probe"][i]
    feat, _ = network.features_forward(st["model"], crops[k : k + 1], uee[k : k + 1])
    alone, _ = network.classify_features(st["model"], feat, 0)
    # batch and single rows differ only in BLAS summation order
    return bool(np.allclose(alone[0], logits[k], rtol=1e-9, atol=1e-12))


def track_timed(c, st, seconds: float) -> Phase:
    scale, model = st["scale"], st["model"]
    n_frames = len(st["seq"])
    ph = Phase()
    start = perf_counter()
    j = 0
    while j < scale.min_frames or perf_counter() - start < seconds:
        i = 1 + j % (n_frames - 1)
        c.start_round(j)
        try:
            with ph.clock.segment() as score, c.span("op.frame"):
                crops, uee, logits = _score_frame(c, st, i)
            segments = [score]
            c.count("network.candidates_scored", len(logits))
            ok = _logits_ok(st, crops, uee, logits, i)
            if (j + 1) % scale.update_every == 0:
                with ph.clock.segment() as update, c.span("op.update"):
                    loss = c.train_step(model, TrainBatch(crops, uee, st["labels"][i]),
                                        0, st["sgd"], st["sgd_state"])
                segments.append(update)
                ok = ok and math.isfinite(loss)
        except Exception:
            ph.fail()
        else:
            ph.done(segments, ok, 1)
        j += 1
    ph.clock.probe(force=True)
    return ph


def track_walk_inputs(c, st) -> dict:
    """Eight candidates of frame 1 and the spike crop of the first one."""
    crops, uee, _ = _score_frame(c, st, 1)
    cfg = st["model"].config
    size = cfg.input_crop
    x, y = st["corners"][1][0]
    window = TimeWindow(st["seq"].timestamps[0], st["seq"].timestamps[1])
    spikes = c.encode_events_to_spikes(st["stream"], window, cfg.uee.srm_params())
    return {
        "model": st["model"], "spikes": spikes[:, y : y + size, x : x + size],
        "assembled": crops[:8], "uee_feat": uee[:8], "labels": st["labels"][1][:8],
        "domain": 0,
    }


# ----------------------------------------------------------- train-paper


@dataclass(frozen=True)
class TrainScale:
    config: MCFRConfig
    scene: SceneSpec
    positives: int = 8
    negatives: int = 24
    sample_frames: int = 8


TRAIN_PAPER = TrainScale(
    config=MCFRConfig(num_domains=4),
    scene=SceneSpec(width=200, height=160, object_w=48, object_h=48,
                    frame_count=20, velocity=(4.0, 0.0), amplitude=20.0,
                    period=20.0, drift=4.0),
)


def train_setup(c, scale: TrainScale, seed: int, workdir=None) -> dict:
    """One fixed batch per domain (motion x exposure), MDNet's 1:3 ratio.

    Events come from the clean frames, so both exposures of a motion share
    their event stream, their crop windows and hence their UEE features.
    The UEE branch is frozen, so it runs here once per crop and never in
    the timed phase.
    """
    cfg = scale.config
    if cfg.num_domains != len(MOTIONS) * len(EXPOSURES):
        raise ValueError("train-paper needs one domain per motion and exposure")
    model = MCFRModel.initialize(cfg, seed)
    rng = np.random.default_rng(seed)
    size, hw = cfg.input_crop, cfg.feature_hw
    srm = cfg.uee.srm_params()
    n = scale.positives + scale.negatives
    labels = np.array([1] * scale.positives + [0] * scale.negatives, dtype=np.int64)
    obj = max(scale.scene.object_w, scale.scene.object_h)
    batches = []
    for m, motion in enumerate(MOTIONS):
        seq, boxes = c.gen_synthetic_sequence(replace(scale.scene, motion=motion), seed + m)
        stream = c.frames_to_events(seq, SimConfig(), seed + m)
        shown = (seq, c.perturb_exposure(seq, ExposureConfig(mode="over"), seed + m))
        frames_used = rng.choice(np.arange(1, len(seq)), scale.sample_frames, replace=False)
        frame_of = frames_used[np.arange(n) % scale.sample_frames]
        # positives within 0.1 object sizes of the centre, negatives 0.5-1.0 away
        angle = rng.uniform(0.0, 2 * np.pi, n)
        radius = np.where(labels == 1, rng.uniform(0.0, 0.1, n), rng.uniform(0.5, 1.0, n))
        offsets = obj * radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        crops = np.empty((len(shown), n, 7, size, size))
        uee = np.empty((n, cfg.uee.channels[-1], *hw))
        for f in frames_used:
            window = TimeWindow(seq.timestamps[f - 1], seq.timestamps[f])
            stacked = c.stack_events(stream, window)
            spikes = c.encode_events_to_spikes(stream, window, srm)
            x7 = [c.assemble_input(c.to_rgb01(s.frames[f]), stacked) for s in shown]
            for s in np.flatnonzero(frame_of == f):
                centre = boxes[f, :2] + boxes[f, 2:] / 2 + offsets[s]
                x, y = _corner(centre, size, seq.width, seq.height)
                uee[s] = c.uee_forward_spikes(
                    spikes[:, y : y + size, x : x + size], model.uee, hw)
                for e, planes in enumerate(x7):
                    crops[e, s] = planes[:, y : y + size, x : x + size]
        batches.extend(TrainBatch(crops[e], uee, labels) for e in range(len(shown)))
        if m == 0:
            walk_spikes = spikes[:, y : y + size, x : x + size]
    st = {"scale": scale, "model": model, "batches": batches,
          "walk_spikes": walk_spikes,
          "sgd": default_sgd_config(), "sgd_state": SGDState()}
    # warm-up: one small step on a throwaway copy
    warm = batches[0]
    c.train_step(model.copy(), TrainBatch(warm.assembled[:4], warm.uee_feat[:4],
                                          warm.labels[:4]), 0, st["sgd"], SGDState())
    return st


def train_timed(c, st, seconds: float) -> Phase:
    """Round-robin steps over the domains, at least one full round plus one,
    so that some domain's batch repeats and its loss can be seen to fall."""
    model = st["model"]
    batches = st["batches"]
    n_dom = len(batches)
    ph = Phase()
    losses: dict[int, list[tuple[int, float]]] = {}
    start = perf_counter()
    j = 0
    while j <= n_dom or perf_counter() - start < seconds:
        d = j % n_dom
        c.start_round(j)
        try:
            with ph.clock.segment() as step, c.span("op.step"):
                loss = c.train_step(model, batches[d], d, st["sgd"], st["sgd_state"])
        except Exception:
            ph.fail()
        else:
            ph.done([step], math.isfinite(loss), len(batches[d].labels))
            losses.setdefault(d, []).append((j, loss))
        j += 1
    ph.clock.probe(force=True)
    for seen in losses.values():
        (_, first), (last_op, last) = seen[0], seen[-1]
        if len(seen) > 1 and not last < first:
            ph.ok[last_op] = False
            ph.errors.append(f"loss did not fall: {first} -> {last}")
    ph.extra["losses"] = {d: [l for _, l in seen] for d, seen in losses.items()}
    return ph


def train_walk_inputs(c, st) -> dict:
    """The first eight samples of domain 0, and one of its spike crops."""
    b = st["batches"][0]
    return {
        "model": st["model"], "spikes": st["walk_spikes"],
        "assembled": b.assembled[:8], "uee_feat": b.uee_feat[:8],
        "labels": b.labels[:8], "domain": 0,
    }


# ---------------------------------------------------------------- ingest


@dataclass(frozen=True)
class IngestScale:
    scene: SceneSpec
    srm: SRMParams = SRMParams()
    warmup_frames: int = 4
    mass_pixels: int = 256
    min_trips: int = 4  # enough windows for a p95 tail with ten beyond it


# DAVIS346 sensor geometry
INGEST = IngestScale(
    scene=SceneSpec(width=346, height=260, object_w=48, object_h=48,
                    frame_count=60, motion="sine", amplitude=40.0,
                    period=30.0, drift=3.0),
)


def ingest_setup(c, scale: IngestScale, seed: int, workdir=None) -> dict:
    seq, boxes = c.gen_synthetic_sequence(scale.scene, seed)
    rng = np.random.default_rng(seed)
    st = {
        "scale": scale, "seed": seed, "seq": seq, "boxes": boxes,
        "workdir": workdir,
        "pixels": rng.choice(seq.width * seq.height, scale.mass_pixels, replace=False),
    }
    # warm-up: a round trip over the first few frames
    k = scale.warmup_frames
    short = dict(st, seq=FrameSequence(seq.frames[:k], seq.timestamps[:k]), boxes=boxes[:k])
    _round_trip(c, short, Phase())
    return st


def _round_trip(c, st, ph: Phase) -> None:
    """Write the sequence, its events and its stacked windows; read them back.

    Each window's calls on either side are timed as segments of their own;
    the two make that window's operation time. The whole-sequence calls
    count towards the phase's busy time only.
    """
    seq, seed = st["seq"], st["seed"]
    srm = st["scale"].srm
    sim = SimConfig()
    trip = tempfile.mkdtemp(dir=st["workdir"])
    try:
        windows = [TimeWindow(a, b) for a, b in zip(seq.timestamps, seq.timestamps[1:])]
        stack_paths = [f"{trip}/{k:05d}.mcst" for k in range(len(windows))]
        with ph.clock.segment() as write_all:
            shown = c.perturb_exposure(seq, ExposureConfig(), seed)
            stream = c.frames_to_events(seq, sim, seed)
            c.save_sequence(shown, f"{trip}/frames", st["boxes"])
            c.save_events(stream, f"{trip}/events.csv")
        write_windows = []
        for k, window in enumerate(windows):
            with ph.clock.segment() as seg:
                c.save_stacked(c.stack_events(stream, window), stack_paths[k])
            write_windows.append(seg)

        with ph.clock.segment() as read_all:
            loaded_seq = c.load_sequence(f"{trip}/frames")
            loaded = c.load_events(f"{trip}/events.csv")
        read_windows = []
        window_ok = []
        for k, window in enumerate(windows):
            with ph.clock.segment() as seg:
                planes, loaded_window, _, _ = c.load_stacked(stack_paths[k])
                stacked = c.stack_events(loaded, loaded_window)
                c.assemble_input(c.to_rgb01(loaded_seq.frames[k + 1]), stacked)
                c.encode_events_to_spikes(loaded, loaded_window, srm)
            read_windows.append(seg)
            expected = int(np.searchsorted(stream.t, window.t1)
                           - np.searchsorted(stream.t, window.t0))
            window_ok.append(
                loaded_window == window
                and np.array_equal(planes,
                                   stacking.normalize_stacked(stacked).astype(np.float32))
                and int(stacked.c_pos.sum() + stacked.c_neg.sum()) == expected
            )
        c.count("events.file_mb", _file_mb(f"{trip}/events.csv"))
    finally:
        shutil.rmtree(trip, ignore_errors=True)

    trip_ok = (
        loaded == stream
        and loaded_seq.timestamps == shown.timestamps
        and all(np.array_equal(a, b) for a, b in zip(loaded_seq.frames, shown.frames))
        and _mass_ok(seq, stream, sim, st["pixels"])
    )
    if not trip_ok:
        ph.errors.append("round trip or simulator invariant check failed")
    for ok, w, r in zip(window_ok, write_windows, read_windows):
        ph.done([w, r], ok and trip_ok, 0)
    ph.items += len(stream)
    # segments of each side, for the write and read rates of the traced run
    ph.extra.setdefault("write_segments", []).extend([write_all, *write_windows])
    ph.extra.setdefault("read_segments", []).extend([read_all, *read_windows])


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _mass_ok(seq, stream, sim: SimConfig, pixels) -> bool:
    """Net event mass c_pos*N+ - c_neg*N- per sampled pixel is within one
    threshold of that pixel's log-intensity change over the sequence."""
    h, w = seq.height, seq.width
    dlog = (np.log(to_luminance(seq.frames[-1]) + sim.log_eps)
            - np.log(to_luminance(seq.frames[0]) + sim.log_eps)).ravel()[pixels]
    weights = np.where(stream.p > 0, sim.c_pos, -sim.c_neg)
    mass = np.bincount(stream.y.astype(np.int64) * w + stream.x, weights=weights,
                       minlength=h * w)[pixels]
    return bool(np.all(np.abs(mass - dlog) < max(sim.c_pos, sim.c_neg) + 1e-9))


def ingest_timed(c, st, seconds: float) -> Phase:
    ph = Phase()
    start = perf_counter()
    j = 0
    while j < st["scale"].min_trips or perf_counter() - start < seconds:
        c.start_round(j)
        try:
            with c.span("op.round_trip"):
                _round_trip(c, st, ph)
        except Exception:
            # a trip that raises records nothing else: fail all its windows
            for _ in range(len(st["seq"]) - 1):
                ph.fail()
        j += 1
    ph.clock.probe(force=True)
    return ph


@dataclass(frozen=True)
class Workload:
    setup: object
    timed: object
    walk_inputs: object  # None: the workload runs no network, nothing to walk
    scale: object
    tiny: object


WORKLOADS = {
    "track": Workload(
        track_setup, track_timed, track_walk_inputs, TRACK,
        TrackScale(config=MCFRConfig.tiny(num_domains=1),
                   scene=SceneSpec(width=40, height=32, frame_count=6),
                   candidates=4, update_every=2, min_frames=4),
    ),
    "train-paper": Workload(
        train_setup, train_timed, train_walk_inputs, TRAIN_PAPER,
        TrainScale(config=MCFRConfig.tiny(num_domains=4),
                   scene=SceneSpec(width=40, height=32, frame_count=6),
                   positives=2, negatives=6, sample_frames=4),
    ),
    "ingest": Workload(
        ingest_setup, ingest_timed, None, INGEST,
        IngestScale(scene=SceneSpec(width=40, height=32, frame_count=6),
                    srm=SRMParams(t_bins=4), warmup_frames=3, min_trips=2),
    ),
}
