"""The fusion network: shared branch, RGB branch, event branch, and the
multi-domain classification head.

The config names its ablation variant, and ABLATION_VARIANTS lists the
branches and input channel groups each variant keeps. The event branch's
layer geometry and SRM constants are fixed in `snn`; the config sets only
its channel widths and time bins, and its frozen weights `uee.i.w` are
arrays of `params` like every other.

Data flow for one sample: the 7-channel assembled input, with the channel
groups the ablation variant leaves out set to zero, passes through a
learned 1x1 channel transform (tau, 7->3) into the shared convolutional
branch (CFE); the raw RGB planes feed the RGB-only branch (UER); the event
branch (UEE, spiking, frozen) contributes a feature map computed outside
the differentiable path. Enabled branch outputs are concatenated in the
fixed order UEE|CFE|UER, selected by a 1x1 fusion convolution, flattened,
and classified by fc4 -> fc5 -> fc6^k, where each domain k owns its own
two-logit fc6 branch.

The differentiable path is written down once, as ordered layer tables
(`_layers`): "uee" is empty, since the event features enter the fusion as
constants, "cfe" is tau then the CFE blocks, "uer" the UER blocks plus
an adaptive average pool when their output misses feature_hw, "fusion"
the fusion conv, its ReLU and the flattening, and "head" fc4, ReLU, fc5,
ReLU, fc6^domain. A layer is a plain tuple: ("conv", name, w_shape,
stride, pad), ("fc", name, w_shape), ("relu",), ("pool", k, stride),
("adapt", hw) or ("flat",). `param_shapes` reads the parameter shapes off
the tables, `_run` walks a table forward and `_run_backward` walks it in
reverse, so forward, backward and the checkpoint set cannot disagree. A
checkpoint holds the config and then those arrays as one f32 run in
param_shapes order: the config is its table of contents.

Training uses softmax cross-entropy and SGD with per-group learning rates;
a train step for domain k touches shared parameters and fc6^k only, and
never the event branch.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    CheckpointError,
    ConfigError,
    GeometryError,
    McfrError,
    NonFiniteError,
    require_int,
)
from .events import MAX_SENSOR_SIDE
from .nn import (
    SGDConfig,
    SGDState,
    adaptive_avgpool_backward,
    adaptive_avgpool_forward,
    conv2d_backward,
    conv2d_forward,
    conv_out_dim,
    fc_backward,
    fc_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    sgd_step,
    softmax_ce_backward,
    softmax_ce_forward,
)
from .snn import UEE_KERNEL, SRMParams, UeeNetwork

CHECKPOINT_MAGIC = b"MCFR"
CHECKPOINT_VERSION = 3


def _require_ints(spec, names: tuple[str, ...], minimum: int) -> None:
    for name in names:
        require_int(f"{type(spec).__name__}.{name}", getattr(spec, name), minimum)


@dataclass(frozen=True)
class ConvBlockSpec:
    """One conv(+ReLU)(+max-pool) stage."""

    out_channels: int
    kernel: int
    stride: int
    padding: int
    pool: int = 0  # 0 = no pooling
    pool_stride: int = 2

    def __post_init__(self):
        _require_ints(self, ("out_channels", "kernel", "stride", "pool_stride"), 1)
        _require_ints(self, ("padding", "pool"), 0)


@dataclass(frozen=True)
class SRMNetSpec:
    """Event-branch layout: (in, hidden..., out) channels and the number of
    time bins of the spike encoding; `snn` fixes everything else."""

    channels: tuple[int, ...] = (2, 16, 32, 64)
    t_bins: int = 32

    def __post_init__(self):
        if len(self.channels) < 2:
            raise ConfigError("SRMNetSpec needs input and output channel counts")
        for c in self.channels:
            require_int("SRMNetSpec.channels", c, 1)
        _require_ints(self, ("t_bins",), 1)

    def srm_params(self) -> SRMParams:
        return SRMParams(t_bins=self.t_bins)


ALL_BRANCHES = ("uee", "cfe", "uer")
ALL_INPUTS = ("rgb", "counts", "timestamps")  # 3, 2 and 2 input channels

# Variant name -> (branches kept, in UEE|CFE|UER order; input groups kept):
# the eight ablations of the paper plus the full model.
ABLATION_VARIANTS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "full": (ALL_BRANCHES, ALL_INPUTS),
    "oe": (("cfe",), ("counts", "timestamps")),
    "or": (("cfe",), ("rgb",)),
    "er": (("cfe",), ALL_INPUTS),
    "no-uee": (("cfe", "uer"), ALL_INPUTS),
    "no-cfe": (("uee", "uer"), ALL_INPUTS),
    "no-uer": (("uee", "cfe"), ALL_INPUTS),
    "c": (ALL_BRANCHES, ("rgb", "counts")),
    "t": (ALL_BRANCHES, ("rgb", "timestamps")),
}


@dataclass(frozen=True)
class AblationFlags:
    """The ablation variant, by its name in ABLATION_VARIANTS."""

    variant: str = "full"

    def __post_init__(self):
        if self.variant not in ABLATION_VARIANTS:
            raise ConfigError(
                f"unknown ablation variant {self.variant!r}; "
                f"choose from {sorted(ABLATION_VARIANTS)}"
            )

    @property
    def use_uee(self) -> bool:
        return "uee" in ABLATION_VARIANTS[self.variant][0]

    @property
    def use_cfe(self) -> bool:
        return "cfe" in ABLATION_VARIANTS[self.variant][0]

    @property
    def use_uer(self) -> bool:
        return "uer" in ABLATION_VARIANTS[self.variant][0]


def _blocks_hw(size: int, blocks: tuple[ConvBlockSpec, ...]) -> tuple[int, int]:
    """Spatial size after a stack of conv blocks on a size x size input."""
    for block in blocks:
        size = conv_out_dim(size, block.kernel, block.stride, block.padding)
        if block.pool:
            size = conv_out_dim(size, block.pool, block.pool_stride, 0)
    return (size, size)


@dataclass(frozen=True)
class MCFRConfig:
    input_crop: int = 107
    cfe: tuple[ConvBlockSpec, ...] = (
        ConvBlockSpec(96, 7, 2, 0, pool=3, pool_stride=2),
        ConvBlockSpec(256, 5, 2, 0, pool=3, pool_stride=2),
        ConvBlockSpec(512, 3, 1, 0),
    )
    uer: tuple[ConvBlockSpec, ...] = (
        ConvBlockSpec(128, 3, 2, 0, pool=3, pool_stride=2),
        ConvBlockSpec(256, 1, 1, 0, pool=3, pool_stride=2),
        ConvBlockSpec(256, 1, 1, 0),
    )
    uee: SRMNetSpec = SRMNetSpec()
    fusion_channels: int = 512
    fc_dims: tuple[int, int] = (512, 512)
    num_domains: int = 1
    ablation: AblationFlags = AblationFlags()

    def __post_init__(self):
        _require_ints(self, ("input_crop", "fusion_channels", "num_domains"), 1)
        if self.input_crop > MAX_SENSOR_SIDE:
            raise ConfigError(
                f"input_crop {self.input_crop} exceeds the sensor side limit "
                f"{MAX_SENSOR_SIDE}"
            )
        if len(self.fc_dims) != 2:
            raise ConfigError("fc_dims holds the fc4 and fc5 widths")
        for d in self.fc_dims:
            require_int("MCFRConfig.fc_dims", d, 1)
        if len(self.cfe) != 3 or len(self.uer) != 3:
            raise ConfigError("shared and RGB branches take exactly 3 conv blocks")
        if self.uee.channels[0] != 2:
            raise ConfigError("event branch input is the 2 polarity channels")
        # validate geometry early; the UER size decides its layer table
        _blocks_hw(self.input_crop, self.uer)
        self.feature_hw

    @property
    def feature_hw(self) -> tuple[int, int]:
        """Spatial size of every branch output (the shared branch defines it)."""
        return _blocks_hw(self.input_crop, self.cfe)

    @property
    def branch_channels(self) -> dict[str, int]:
        widths = {"uee": self.uee.channels[-1], "cfe": self.cfe[-1].out_channels,
                  "uer": self.uer[-1].out_channels}
        return {name: widths[name]
                for name in ABLATION_VARIANTS[self.ablation.variant][0]}

    @property
    def fusion_in_channels(self) -> int:
        return sum(self.branch_channels.values())

    @property
    def fc_in_dim(self) -> int:
        h, w = self.feature_hw
        return self.fusion_channels * h * w

    def with_ablation(self, variant: str) -> "MCFRConfig":
        return replace(self, ablation=AblationFlags(variant))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MCFRConfig":
        d = copy.deepcopy(d)
        d["cfe"] = tuple(ConvBlockSpec(**b) for b in d["cfe"])
        d["uer"] = tuple(ConvBlockSpec(**b) for b in d["uer"])
        uee = d["uee"]
        uee["channels"] = tuple(uee["channels"])
        d["uee"] = SRMNetSpec(**uee)
        d["fc_dims"] = tuple(d["fc_dims"])
        d["ablation"] = AblationFlags(**d["ablation"])
        return cls(**d)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def reduced(cls, num_domains: int = 1):
        """Desk-scale geometry: crop 75, narrow channels, 8 time bins."""
        return cls(
            input_crop=75,
            cfe=(
                ConvBlockSpec(16, 7, 2, 0, pool=3, pool_stride=2),
                ConvBlockSpec(32, 5, 2, 0, pool=3, pool_stride=2),
                ConvBlockSpec(64, 3, 1, 0),
            ),
            uer=(
                ConvBlockSpec(16, 3, 2, 0, pool=3, pool_stride=2),
                ConvBlockSpec(32, 1, 1, 0, pool=3, pool_stride=2),
                ConvBlockSpec(32, 1, 1, 0),
            ),
            uee=SRMNetSpec(channels=(2, 4, 8, 16), t_bins=8),
            fusion_channels=64,
            fc_dims=(64, 64),
            num_domains=num_domains,
        )

    @classmethod
    def tiny(cls, num_domains: int = 2):
        """Gradient-check geometry: everything as small as the layer set allows."""
        return cls(
            input_crop=19,
            cfe=(
                ConvBlockSpec(4, 7, 2, 0),
                ConvBlockSpec(6, 5, 2, 0),
                ConvBlockSpec(8, 3, 1, 1),
            ),
            uer=(
                ConvBlockSpec(4, 3, 2, 0),
                ConvBlockSpec(6, 1, 1, 0),
                ConvBlockSpec(6, 1, 1, 0),
            ),
            uee=SRMNetSpec(channels=(2, 3, 4), t_bins=4),
            fusion_channels=8,
            fc_dims=(8, 8),
            num_domains=num_domains,
        )


def _conv_blocks(prefix: str, blocks, in_c: int) -> list[tuple]:
    """Conv, ReLU and (when the block pools) max-pool layers of a stack."""
    layers = []
    for i, block in enumerate(blocks):
        w_shape = (block.out_channels, in_c, block.kernel, block.kernel)
        layers += [("conv", f"{prefix}.{i}", w_shape, block.stride, block.padding),
                   ("relu",)]
        if block.pool:
            layers.append(("pool", block.pool, block.pool_stride))
        in_c = block.out_channels
    return layers


def _layers(config: MCFRConfig, domain: int = 0) -> dict[str, list[tuple]]:
    """The layer tables of the differentiable path (see the module
    docstring), for every branch whether enabled or not."""
    uer = _conv_blocks("uer", config.uer, 3)
    if _blocks_hw(config.input_crop, config.uer) != config.feature_hw:
        uer.append(("adapt", config.feature_hw))
    d0, d1 = config.fc_dims
    return {
        "uee": [],  # frozen: the event features enter the fusion as constants
        "cfe": [("conv", "tau", (3, 7, 1, 1), 1, 0),
                *_conv_blocks("cfe", config.cfe, 3)],
        "uer": uer,
        "fusion": [("conv", "fusion",
                    (config.fusion_channels, config.fusion_in_channels, 1, 1), 1, 0),
                   ("relu",), ("flat",)],
        "head": [("fc", "fc4", (d0, config.fc_in_dim)), ("relu",),
                 ("fc", "fc5", (d1, d0)), ("relu",),
                 ("fc", f"fc6.{domain}", (2, d1))],
    }


def param_shapes(config: MCFRConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every checkpointed array, in initialize()'s draw
    order: tau, CFE, UER, fusion, fc4, fc5, the fc6 heads, then the frozen
    event-branch weights `uee.i.w` when that branch is enabled."""
    shapes: dict[str, tuple[int, ...]] = {}
    # re-assigning a name keeps its first position, so walking the tables
    # once per domain only appends that domain's fc6 after the last one
    for k in range(config.num_domains):
        for table in _layers(config, k).values():
            for layer in table:
                if layer[0] in ("conv", "fc"):
                    _, name, w_shape = layer[:3]
                    shapes[f"{name}.w"] = w_shape
                    shapes[f"{name}.b"] = w_shape[:1]
    if config.ablation.use_uee:
        channels = config.uee.channels
        for i, (cin, cout) in enumerate(zip(channels, channels[1:])):
            shapes[f"uee.{i}.w"] = (cout, cin, UEE_KERNEL, UEE_KERNEL)
    return shapes


def _init_array(rng: np.random.Generator, name: str, shape) -> np.ndarray:
    if name.endswith(".b"):
        return np.zeros(shape)
    if name.startswith("fc6."):
        return rng.normal(0.0, 0.001, shape)
    if name.startswith("uee."):
        return rng.normal(0.0, 1.0 / math.sqrt(math.prod(shape[1:])), shape)
    return rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), shape)


class MCFRModel:
    """A config plus `params`, which holds every array param_shapes(config)
    lists, in that order: the trainable weights and biases and the frozen
    event-branch weights `uee.i.w`, which must be finite."""

    def __init__(self, config: MCFRConfig, params: dict[str, np.ndarray]):
        expected = param_shapes(config)
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        if missing or extra:
            raise ConfigError(
                f"parameter set mismatch (missing {missing}, extra {extra})"
            )
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ConfigError(
                    f"shape mismatch for {name!r}: {params[name].shape} != {shape}"
                )
            if name.startswith("uee.") and not np.isfinite(params[name]).all():
                raise ConfigError(f"non-finite event-branch weights {name!r}")
        self.config = config
        self.params = {name: params[name] for name in expected}

    @property
    def uee(self) -> UeeNetwork | None:
        """The frozen event branch as a view over params["uee.i.w"] (no
        copies), or None when the variant drops it."""
        if not self.config.ablation.use_uee:
            return None
        return UeeNetwork([self.params[f"uee.{i}.w"]
                           for i in range(len(self.config.uee.channels) - 1)])

    @classmethod
    def initialize(cls, config: MCFRConfig, seed: int = 0) -> "MCFRModel":
        """He-scaled Gaussian init for convs and hidden fcs; small Gaussian
        for the domain heads; zero biases. The frozen event-branch weights
        come last, from a second generator seeded by the first, with std
        1/sqrt(fan-in).

        Fan-in scaling (rather than a fixed tiny std) keeps feature
        magnitudes O(1) through the stack, which from-scratch training at
        desk scale needs to make any progress.
        """
        rng = np.random.default_rng(seed)
        shapes = param_shapes(config)
        p = {name: _init_array(rng, name, shape)
             for name, shape in shapes.items() if not name.startswith("uee.")}
        # drawing this seed when the variant has no event branch changes nothing
        uee_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
        p.update((name, _init_array(uee_rng, name, shape))
                 for name, shape in shapes.items() if name.startswith("uee."))
        return cls(config, p)

    def copy(self) -> "MCFRModel":
        return copy.deepcopy(self)

    def with_single_branch(self, seed: int = 0) -> "MCFRModel":
        """Tracking-time model: the k domain heads replaced by one fresh head."""
        cfg = replace(self.config, num_domains=1)
        rng = np.random.default_rng(seed)
        params = {
            k: v.copy() for k, v in self.params.items() if not k.startswith("fc6.")
        }
        shapes = param_shapes(cfg)
        for name in ("fc6.0.w", "fc6.0.b"):
            params[name] = _init_array(rng, name, shapes[name])
        return MCFRModel(cfg, params)


def _run(x, layers, params):
    """Walk a layer table forward; returns (y, one cache per layer)."""
    caches = []
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            _, name, _, stride, pad = layer
            x, cache = conv2d_forward(x, params[f"{name}.w"], params[f"{name}.b"],
                                      stride, pad)
        elif kind == "fc":
            name = layer[1]
            x, cache = fc_forward(x, params[f"{name}.w"], params[f"{name}.b"])
        elif kind == "relu":
            x, cache = relu_forward(x)
        elif kind == "pool":
            x, cache = maxpool_forward(x, layer[1], layer[2])
        elif kind == "adapt":
            x, cache = adaptive_avgpool_forward(x, layer[1])
        else:  # flat
            x, cache = x.reshape(x.shape[0], -1), x.shape
        caches.append(cache)
    return x, caches


def _run_backward(dy, layers, caches, params, grads):
    """Walk a layer table in reverse from the output gradient dy, storing
    each conv and fc parameter gradient in grads; returns the input
    gradient."""
    for layer, cache in zip(reversed(layers), reversed(caches)):
        kind = layer[0]
        if kind == "conv":
            name = layer[1]
            dy, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(dy, cache)
        elif kind == "fc":
            name = layer[1]
            dy, grads[f"{name}.w"], grads[f"{name}.b"] = fc_backward(
                dy, cache, params[f"{name}.w"]
            )
        elif kind == "relu":
            dy = relu_backward(dy, cache)
        elif kind == "pool":
            dy = maxpool_backward(dy, cache)
        elif kind == "adapt":
            dy = adaptive_avgpool_backward(dy, cache)
        else:  # flat
            dy = dy.reshape(cache)
    return dy


def _drop_input_groups(assembled: np.ndarray, flags: AblationFlags) -> np.ndarray:
    """The assembled input with the channel groups the variant leaves out
    set to zero; the input itself when it keeps them all."""
    kept = ABLATION_VARIANTS[flags.variant][1]
    keep = np.repeat([group in kept for group in ALL_INPUTS], (3, 2, 2))
    return assembled if keep.all() else np.where(keep[:, None, None], assembled, 0.0)


def features_forward(model: MCFRModel, assembled: np.ndarray,
                     uee_feat: np.ndarray | None):
    """Branches + fusion; returns (flat features (N,D), cache).

    assembled is (N,7,S,S); uee_feat is (N,C,h,w) aligned to feature_hw and
    treated as a constant (no gradient flows into it).
    """
    cfg = model.config
    n = assembled.shape[0]
    if assembled.shape[1] != 7 or assembled.shape[2] != cfg.input_crop:
        raise GeometryError(
            f"assembled input must be (N,7,{cfg.input_crop},{cfg.input_crop})"
        )
    if cfg.ablation.use_uee:
        if uee_feat is None:
            raise ConfigError("event branch enabled but uee_feat missing")
        expect = (n, cfg.uee.channels[-1], *cfg.feature_hw)
        if uee_feat.shape != expect:
            raise GeometryError(f"uee_feat shape {uee_feat.shape} != {expect}")
    assembled = _drop_input_groups(assembled, cfg.ablation)
    inputs = {"uee": uee_feat, "cfe": assembled, "uer": assembled[:, :3]}
    tables = _layers(cfg)
    pieces, cache = [], {}
    for name in cfg.branch_channels:  # the fixed order UEE|CFE|UER
        out, cache[name] = _run(inputs[name], tables[name], model.params)
        pieces.append(out)
    feat, cache["fusion"] = _run(
        np.concatenate(pieces, axis=1), tables["fusion"], model.params
    )
    return feat, cache


def classify_features(model: MCFRModel, feat: np.ndarray, domain: int):
    """fc4 -> fc5 -> fc6^domain on flat features; returns (logits, cache)."""
    if not 0 <= domain < model.config.num_domains:
        raise ConfigError(
            f"domain {domain} outside 0..{model.config.num_domains - 1}"
        )
    logits, caches = _run(feat, _layers(model.config, domain)["head"], model.params)
    return logits, {"domain": domain, "head": caches}


def forward(model: MCFRModel, assembled, uee_feat, domain: int):
    feat, feat_cache = features_forward(model, assembled, uee_feat)
    logits, fc_cache = classify_features(model, feat, domain)
    return logits, {"feat": feat_cache, "fc": fc_cache}


def backward(model: MCFRModel, cache: dict, dlogits: np.ndarray):
    """Full-path gradients for every trainable parameter reached from the
    loss; the event branch receives none by construction."""
    fc_cache, feat_cache = cache["fc"], cache["feat"]
    tables = _layers(model.config, fc_cache["domain"])
    grads: dict[str, np.ndarray] = {}
    dfeat = _run_backward(dlogits, tables["head"], fc_cache["head"], model.params, grads)
    dconcat = _run_backward(dfeat, tables["fusion"], feat_cache["fusion"],
                            model.params, grads)
    offset = 0
    for name, width in model.config.branch_channels.items():
        _run_backward(dconcat[:, offset : offset + width], tables[name],
                      feat_cache[name], model.params, grads)
        offset += width
    return grads


@dataclass
class TrainBatch:
    """Assembled inputs plus constant event-branch features and labels."""

    assembled: np.ndarray  # (N, 7, S, S)
    uee_feat: np.ndarray | None  # (N, C, h, w) or None when branch disabled
    labels: np.ndarray  # (N,) in {0 = background, 1 = target}


def default_sgd_config() -> SGDConfig:
    """Conv and fc4/fc5 at 1e-4, domain heads at 1e-3.

    These are MDNet's fine-tuning rates (Nam & Han, CVPR 2016), meant for
    a pretrained network. They are not an overfitting schedule: from a
    fresh initialize() they do not fit even two samples in a few hundred
    steps.
    """
    return SGDConfig(
        lr={"fc6": 1e-3},
        default_lr=1e-4,
        momentum=0.9,
        weight_decay=5e-4,
    )


def train_step(
    model: MCFRModel,
    batch: TrainBatch,
    domain: int,
    sgd_cfg: SGDConfig,
    sgd_state: SGDState,
    chunk: int = 64,
) -> float:
    """One SGD step on the batch for one domain; returns the loss.

    The batch is streamed through forward/backward in chunks to bound the
    im2col working set; gradients accumulate exactly as the mean over the
    whole batch. A non-finite loss or gradient raises NonFiniteError and
    leaves the model and the SGD state as they were.
    """
    require_int("chunk", chunk, 1)
    n = batch.assembled.shape[0]
    if n == 0:
        raise ConfigError("empty training batch")
    total_loss = 0.0
    grads_acc: dict[str, np.ndarray] = {}
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        sl = slice(start, end)
        uee_sl = batch.uee_feat[sl] if batch.uee_feat is not None else None
        logits, cache = forward(model, batch.assembled[sl], uee_sl, domain)
        loss, ce_cache = softmax_ce_forward(logits, batch.labels[sl])
        dlogits = softmax_ce_backward(ce_cache)
        grads = backward(model, cache, dlogits)
        weight = (end - start) / n
        total_loss += loss * weight
        for k, g in grads.items():
            if k in grads_acc:
                grads_acc[k] += g * weight
            else:
                grads_acc[k] = g * weight
    # refuse before sgd_step, so parameters and momentum stay untouched
    if not math.isfinite(total_loss):
        raise NonFiniteError(f"non-finite loss {total_loss}")
    bad = sorted(k for k, g in grads_acc.items() if not np.isfinite(g).all())
    if bad:
        raise NonFiniteError(f"non-finite gradients for {bad}")
    sgd_step(model.params, grads_acc, sgd_cfg, sgd_state)
    return total_loss


def save_checkpoint(model: MCFRModel, path) -> None:
    """magic, u16 version, u32-length-prefixed canonical config JSON, then
    every array of param_shapes(config), in that order, as one
    little-endian f32 run with no per-array header: the config fixes each
    name, shape and the byte count. An array that is not finite in f32
    raises NonFiniteError before the file is opened."""
    with np.errstate(over="ignore"):  # an f32 overflow is refused below
        body = {name: model.params[name].astype("<f4")
                for name in param_shapes(model.config)}
    bad = [name for name, arr in body.items() if not np.isfinite(arr).all()]
    if bad:
        raise NonFiniteError(f"non-finite f32 values in {bad}")
    blob = model.config.canonical_json().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.writelines(arr.tobytes() for arr in body.values())


def _decode_config(blob: bytes, path) -> MCFRConfig:
    """The checkpoint's config JSON; any fault in it is a CheckpointError."""
    try:
        return MCFRConfig.from_dict(json.loads(blob.decode("utf-8")))
    except (McfrError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and json.JSONDecodeError,
        # RecursionError a deeply nested value
        raise CheckpointError(
            f"{path}: corrupt config ({type(exc).__name__}: {exc})"
        ) from exc


def load_checkpoint(path) -> MCFRModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC or len(data) < 10:
        raise CheckpointError(f"{path}: bad magic or truncated header")
    version, cfg_len = struct.unpack_from("<HI", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    config = _decode_config(data[10 : 10 + cfg_len], path)
    size = max(0, len(data) - 10 - cfg_len)  # bytes of parameter data
    # each fc6 head holds at least 4 floats: refuse a domain count the data
    # cannot cover before param_shapes pays for every domain
    if size < 16 * config.num_domains:
        raise CheckpointError(f"{path}: parameter data is {size} bytes, "
                              f"{config.num_domains} domains need at least "
                              f"{16 * config.num_domains}")
    shapes = param_shapes(config)
    counts = [math.prod(shape) for shape in shapes.values()]
    if size != 4 * sum(counts):
        raise CheckpointError(f"{path}: parameter data is {size} bytes, "
                              f"the config needs {4 * sum(counts)}")
    values = np.frombuffer(data, dtype="<f4", offset=10 + cfg_len)
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: non-finite parameter values")
    parts = np.split(values, np.cumsum(counts)[:-1])
    return MCFRModel(config, {name: part.astype(np.float64).reshape(shape)
                              for (name, shape), part in zip(shapes.items(), parts)})
