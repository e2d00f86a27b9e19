"""tests/fingerprint.py, the byte-level check of an exact change, stays
runnable: its stages run twice in one process and give the same lines."""

from .fingerprint import PRESETS, stages

STAGES = ("events", "planes", "spikes", "files.written", "files.read", "uee", "fusion",
          "train", "checkpoint.config", "checkpoint.params", "batch.fusion", "batch.train")


def test_stages_repeat_on_the_tiny_preset():
    name, config, batch_size = PRESETS[0]
    assert name == "tiny"
    runs = [[(seed, stage, sha) for seed in (0, 1)
             for stage, sha in stages(config, seed, batch_size)] for _ in range(2)]
    assert runs[0] == runs[1]
    assert [(seed, stage) for seed, stage, _ in runs[0]] == [
        (seed, stage) for seed in (0, 1) for stage in STAGES]
    assert all(len(sha) == 64 for *_, sha in runs[0])
