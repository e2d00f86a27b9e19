"""Print one "stage sha256" line per stage of the pipeline, so that a change
meant to be exact can be checked to the byte against its parent.

    python tests/fingerprint.py > after.txt    # in the changed checkout
    python tests/fingerprint.py > before.txt   # in a checkout of the parent
    diff before.txt after.txt

The script imports the mcfr of the tree it sits in (its ../src), whatever
PYTHONPATH says. Each preset (tiny, reduced and the paper's MCFRConfig)
runs with fixed seeds through: simulated events; normalized and assembled
planes and spikes for every window; the files that save_events,
save_sequence and save_stacked (one dump per frame window) write
("files.written"), and what the loaders return for them ("files.read"); UEE
features, fusion features and logits of two crops; two train_step losses
with every parameter and SGD velocity after them; and the checkpoint, as
two stages: "checkpoint.config" hashes its header and config JSON, and
"checkpoint.params" its f32 body, so a change to the config format shows
only in the first. A last stage repeats features, logits and two train
steps on a batch of crops that spans several column chunks of every pooled
conv (nn._col_chunks), so the chunk boundaries are hashed too. The paper
preset's event-branch layers are filtered in blocks (snn._BLOCK_BYTES) and
the other presets' in one call, so both paths are hashed. Every
window's event offsets fit int64, the range in which the event path gives a
result at all. It is not named test_*, so pytest does not collect it.
"""

import hashlib
import struct
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from mcfr.events import TimeWindow, load_events, save_events
from mcfr.frames import load_groundtruth, load_sequence, save_sequence, to_rgb01
from mcfr.network import (
    MCFRConfig,
    MCFRModel,
    TrainBatch,
    classify_features,
    default_sgd_config,
    features_forward,
    save_checkpoint,
    train_step,
)
from mcfr.nn import SGDState
from mcfr.simulator import SceneSpec, SimConfig, frames_to_events, gen_synthetic_sequence
from mcfr.snn import encode_events_to_spikes, uee_forward_spikes
from mcfr.stacking import (assemble_input, load_stacked, normalize_stacked, save_stacked,
                           stack_events)

# (name, config, crops of the batch stage): 128 reduced crops fill three
# chunks of uer.1, which holds 50 samples a chunk, and 16 paper crops fill
# six of uer.1 (3 a chunk) and sixteen of cfe.0 and cfe.1 (1 a chunk)
PRESETS = (("tiny", MCFRConfig.tiny(), 16), ("reduced", MCFRConfig.reduced(), 128),
           ("paper", MCFRConfig(), 16))
SEEDS = (0, 1)
# Windows beside the frame windows: one before the first frame, and bounds
# far from the events on either side, up to one from 2**63 that holds none.
EXTRA_WINDOWS = (TimeWindow(-5000, 40000), TimeWindow(0, 2**62),
                 TimeWindow(-(2**62), 10**6), TimeWindow(2**63, 2**64))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def corner(box, size: int, width: int, height: int) -> tuple[int, int]:
    """Top-left of the size x size crop centred on a box, kept inside."""
    x = min(max(int(round(box[0] + box[2] / 2 - size / 2)), 0), width - size)
    y = min(max(int(round(box[1] + box[3] / 2 - size / 2)), 0), height - size)
    return x, y


def files_digests(seq, boxes, stream, windows) -> tuple[str, str]:
    """The bytes that the savers write, then what the loaders read back."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_events(stream, tmp / "events.csv")
        save_sequence(seq, tmp / "seq", boxes)
        for i, window in enumerate(windows):
            save_stacked(stack_events(stream, window), tmp / f"{i}.mcst")
        written = [np.frombuffer(str(p.relative_to(tmp)).encode() + p.read_bytes(), np.uint8)
                   for p in sorted(tmp.rglob("*")) if p.is_file()]
        back = load_events(tmp / "events.csv")
        loaded = load_sequence(tmp / "seq")
        read = [back.t, back.x, back.y, back.p, np.array([back.width, back.height]),
                *loaded.frames, np.array(loaded.timestamps), load_groundtruth(tmp / "seq")]
        for i in range(len(windows)):
            planes, window, width, height = load_stacked(tmp / f"{i}.mcst")
            read += [planes, np.array([window.t0, window.t1, width, height])]
    return digest(*written), digest(*read)


def train_digest(model: MCFRModel, crops, uee) -> str:
    """Two train_step losses, then every parameter and SGD velocity."""
    labels = 1 - np.arange(len(crops), dtype=np.int64) % 2  # 1, 0, 1, ...
    batch = TrainBatch(crops, uee, labels)
    sgd, state = default_sgd_config(), SGDState()
    losses = [train_step(model, batch, 0, sgd, state) for _ in range(2)]
    params = [model.params[k] for k in sorted(model.params)]
    velocity = [state.velocity[k] for k in sorted(state.velocity)]
    return digest(np.array(losses), *params, *velocity)


def stages(config: MCFRConfig, seed: int, batch_size: int):
    """(stage, sha256) pairs for one preset and seed."""
    size = config.input_crop
    scene = SceneSpec(width=size + 24, height=size + 16, object_w=size // 2,
                      object_h=size // 2, frame_count=4, velocity=(3.0, 1.0))
    seq, boxes = gen_synthetic_sequence(scene, seed)
    stream = frames_to_events(seq, SimConfig(), seed)
    yield "events", digest(stream.t, stream.x, stream.y, stream.p,
                           np.array([stream.width, stream.height]))

    frame_windows = [TimeWindow(a, b) for a, b in zip(seq.timestamps, seq.timestamps[1:])]
    planes, spikes = [], []
    for i, window in enumerate(frame_windows + list(EXTRA_WINDOWS)):
        stacked = stack_events(stream, window)
        rgb = to_rgb01(seq.frames[min(i + 1, len(seq) - 1)])
        planes += [normalize_stacked(stacked), assemble_input(rgb, stacked)]
        spikes.append(encode_events_to_spikes(stream, window, config.uee.srm_params()))
    yield "planes", digest(*planes)
    yield "spikes", digest(*spikes)
    written, read = files_digests(seq, boxes, stream, frame_windows)
    yield "files.written", written
    yield "files.read", read

    model = MCFRModel.initialize(config, seed)
    x7s, frame_spikes = {}, {}
    for f in range(1, len(seq)):
        window = frame_windows[f - 1]
        x7s[f] = assemble_input(to_rgb01(seq.frames[f]), stack_events(stream, window))
        frame_spikes[f] = encode_events_to_spikes(stream, window, config.uee.srm_params())

    def crop(f, x, y):
        """The assembled crop and its UEE features at (x, y) in frame f."""
        s = frame_spikes[f][:, y : y + size, x : x + size]
        return (x7s[f][:, y : y + size, x : x + size],
                uee_forward_spikes(s, model.uee, config.feature_hw))

    # one crop on the object in each of two frame windows
    pairs = [crop(f, *corner(boxes[f], size, seq.width, seq.height)) for f in (1, 2)]
    crops, uee = map(np.stack, zip(*pairs))
    yield "uee", digest(uee)

    feat, _ = features_forward(model, crops, uee)
    logits, _ = classify_features(model, feat, 0)
    yield "fusion", digest(feat, logits)
    yield "train", train_digest(model, crops, uee)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
    # magic, u16 version and the u32 length of the config JSON that follows
    body = 10 + struct.unpack_from("<HI", data, 4)[1]
    yield "checkpoint.config", digest(np.frombuffer(data[:body], np.uint8))
    yield "checkpoint.params", digest(np.frombuffer(data[body:], np.uint8))

    # crops anywhere in any frame, scored and trained by a fresh model
    rng = np.random.default_rng(seed)
    at = zip(rng.integers(1, len(seq), batch_size),
             rng.integers(0, seq.width - size + 1, batch_size),
             rng.integers(0, seq.height - size + 1, batch_size))
    model = MCFRModel.initialize(config, seed)
    crops, uee = map(np.stack, zip(*[crop(*where) for where in at]))
    feat, _ = features_forward(model, crops, uee)
    logits, _ = classify_features(model, feat, 0)
    yield "batch.fusion", digest(feat, logits)
    yield "batch.train", train_digest(model, crops, uee)


def main() -> None:
    for name, config, batch_size in PRESETS:
        for seed in SEEDS:
            for stage, sha in stages(config, seed, batch_size):
                print(f"{name}.seed{seed}.{stage} {sha}", flush=True)


if __name__ == "__main__":
    main()
