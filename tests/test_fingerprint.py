"""tests/fingerprint.py, the byte-level check of an exact change, stays
runnable: its stages run twice in one process and give the same lines, and
its presets cover both of the event branch's filter paths."""

from mcfr.nn import conv_out_dim
from mcfr.snn import POLARITIES, UEE_KERNEL, UEE_PADDING, UEE_STRIDE, _BLOCK_BYTES

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


def uee_input_bytes(config):
    """Bytes of each event-branch layer's filtered float64 input."""
    side, sizes = config.input_crop, []
    for c in (POLARITIES, *config.uee.channels[:-1]):
        sizes.append(c * side * side * config.uee.t_bins * 8)
        side = conv_out_dim(side, UEE_KERNEL, UEE_STRIDE, UEE_PADDING)
    return sizes


def test_presets_cover_both_filter_paths():
    # the paper's layers are filtered in blocks, the smaller presets' in one call
    sizes = {name: uee_input_bytes(config) for name, config, _ in PRESETS}
    assert len(sizes["paper"]) == 3 and min(sizes["paper"]) > _BLOCK_BYTES
    assert max(sizes["tiny"] + sizes["reduced"]) <= _BLOCK_BYTES
