"""The fusion network: shared branch, RGB branch, event branch, and the
multi-domain classification head.

The config holds what a preset scales: the CFE and UER block widths on
one of the named conv geometries of GEOMETRIES (`config.cfe` and
`config.uer` are the blocks as rows), and the event branch's layer
widths and time bins; its input width, layer geometry and SRM constants
are fixed in `snn`. Its frozen weights `uee.i.w` are arrays of `params`
like every other. The config names its ablation variant, and
ABLATION_VARIANTS lists the branches and input groups each one keeps.

Data flow for one sample: the assembled input (INPUT_GROUPS holds its
channel groups and their widths), with the groups the ablation variant
leaves out set to zero, passes through a learned 1x1 channel transform (tau,
7->3) into the shared convolutional branch (CFE); the raw RGB planes feed
the RGB-only branch (UER); the event branch (UEE, spiking, frozen)
contributes a feature map computed outside the differentiable path. Enabled
branch outputs are concatenated in the fixed order UEE|CFE|UER, selected by
a 1x1 fusion convolution, flattened, and classified by fc4 -> fc5 -> fc6^k,
where each domain k owns its own two-logit fc6 branch.

The differentiable path is written down once, as ordered layer tables
(`_layers`): "uee" is empty, since the event features enter the fusion as
constants, "cfe" is tau then the CFE blocks, "uer" the UER blocks plus an
adaptive average pool when their output misses feature_hw, "fusion" the
fusion conv, its ReLU and the flattening, and "head" fc4, ReLU, fc5, ReLU,
fc6^domain. A block is a conv carrying its max pool when it pools, then
ReLU. The conv pools each column chunk as soon as it is computed, so no
unpooled output exists for the whole batch; as ReLU is monotone, pooling
first gives the same values and gradients, and ReLU and its mask cover
only the pooled cells. A layer is a plain tuple: ("conv", name, w_shape,
stride, pad, pool) with pool (k, stride) or None, ("fc", name, w_shape),
("relu",), ("adapt", hw) or ("flat",). `param_shapes` reads the parameter
shapes off the tables, `_run` walks a table forward and `_run_backward`
walks it in reverse, so forward, backward and the checkpoint set cannot
disagree. `_run` keeps one cache per layer only when given a list to fill,
as `forward` gives it and `features_forward` (scoring) does not;
`_run_backward` pops each one as it uses it. Only a pooled conv's cache
costs work, the argmax of each pooled chunk; beside it a conv's cache is
its input and weight, from which `nn.conv2d_backward` rebuilds the columns
chunk by chunk. A checkpoint is one _HEADER, the config, then those arrays
as one f32 run in param_shapes order: the config is its table of contents.

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
from typing import NamedTuple

import numpy as np

from .errors import (
    CheckpointError,
    ConfigError,
    GeometryError,
    McfrError,
    NonFiniteError,
    require_choice,
    require_int,
    require_side,
    store_tuple,
)
from .nn import (
    SGDConfig,
    SGDState,
    adaptive_avgpool_backward,
    adaptive_avgpool_forward,
    conv2d,
    conv2d_backward,
    conv2d_forward,
    conv_out_dim,
    fc_backward,
    fc_forward,
    relu_backward,
    relu_forward,
    sgd_step,
    softmax_ce_backward,
    softmax_ce_forward,
)
from .snn import POLARITIES, UEE_KERNEL, SRMParams, UeeNetwork

CHECKPOINT_MAGIC = b"MCFR"
CHECKPOINT_VERSION = 4
_HEADER = struct.Struct("<4sHI")  # magic, version, config JSON length


class ConvBlockSpec(NamedTuple):
    """One conv(+max-pool)(+ReLU) stage, a read-only row that MCFRConfig
    builds from a width and its geometry; pool = 0 means no max pool, and
    every pool strides 2."""

    out_channels: int
    kernel: int
    stride: int
    padding: int
    pool: int = 0
    pool_stride: int = 2


# Geometry name -> branch -> each block's (kernel, stride, padding, pool);
# the config gives the widths. "paper" is MDNet's VGG-M conv1-3 for the CFE
# (Nam & Han, CVPR 2016) and the paper's UER; "tiny" drops every pool and
# pads cfe.2, so that a 19-px crop keeps a 2x2 map.
GEOMETRIES = {
    "paper": {"cfe": ((7, 2, 0, 3), (5, 2, 0, 3), (3, 1, 0, 0)),
              "uer": ((3, 2, 0, 3), (1, 1, 0, 3), (1, 1, 0, 0))},
    "tiny": {"cfe": ((7, 2, 0, 0), (5, 2, 0, 0), (3, 1, 1, 0)),
             "uer": ((3, 2, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0))},
}


@dataclass(frozen=True)
class SRMNetSpec:
    """Event-branch layout: the output width of each layer, the last one
    the feature width, and the number of time bins of the spike encoding.
    Its input is the snn.POLARITIES spike channels; `snn` fixes the rest."""

    channels: tuple[int, ...] = (16, 32, 64)
    t_bins: int = 32

    def __post_init__(self):
        if not store_tuple(self, "channels"):
            raise ConfigError("SRMNetSpec needs at least one layer width")
        for c in self.channels:
            require_int("SRMNetSpec.channels", c, 1)
        require_int("SRMNetSpec.t_bins", self.t_bins, 1)

    def srm_params(self) -> SRMParams:
        return SRMParams(t_bins=self.t_bins)


ALL_BRANCHES = ("uee", "cfe", "uer")
INPUT_GROUPS = {"rgb": 3, "counts": 2, "timestamps": 2}  # in assemble_input order
ALL_INPUTS = tuple(INPUT_GROUPS)

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
        require_choice("ablation variant", self.variant, ABLATION_VARIANTS)

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
    cfe_widths: tuple[int, int, int] = (96, 256, 512)
    uer_widths: tuple[int, int, int] = (128, 256, 256)
    geometry: str = "paper"  # a key of GEOMETRIES
    uee: SRMNetSpec = SRMNetSpec()
    fusion_channels: int = 512
    fc_dims: tuple[int, int] = (512, 512)
    num_domains: int = 1
    ablation: AblationFlags = AblationFlags()

    def __post_init__(self):
        require_side("MCFRConfig.input_crop", self.input_crop, ConfigError)
        for name in ("fusion_channels", "num_domains"):
            require_int(f"MCFRConfig.{name}", getattr(self, name), 1)
        for name, count in (("cfe_widths", 3), ("uer_widths", 3), ("fc_dims", 2)):
            for width in store_tuple(self, name, count):
                require_int(f"MCFRConfig.{name}", width, 1)
        require_choice("geometry", self.geometry, GEOMETRIES)
        for name, kind in (("uee", SRMNetSpec), ("ablation", AblationFlags)):
            if not isinstance(value := getattr(self, name), kind):
                raise ConfigError(f"MCFRConfig.{name} is a {kind.__name__}, not {value!r}")
        # refuse a crop that either branch collapses on; the UER size
        # decides its layer table
        _blocks_hw(self.input_crop, self.uer)
        self.feature_hw

    @property
    def cfe(self) -> tuple[ConvBlockSpec, ...]:
        """The shared branch's blocks: cfe_widths on the geometry's rows."""
        return tuple(ConvBlockSpec(width, *row) for width, row
                     in zip(self.cfe_widths, GEOMETRIES[self.geometry]["cfe"]))

    @property
    def uer(self) -> tuple[ConvBlockSpec, ...]:
        """The RGB branch's blocks: uer_widths on the geometry's rows."""
        return tuple(ConvBlockSpec(width, *row) for width, row
                     in zip(self.uer_widths, GEOMETRIES[self.geometry]["uer"]))

    @property
    def feature_hw(self) -> tuple[int, int]:
        """Spatial size of every branch output (the shared branch defines it)."""
        return _blocks_hw(self.input_crop, self.cfe)

    @property
    def branch_channels(self) -> dict[str, int]:
        widths = {"uee": self.uee.channels[-1], "cfe": self.cfe_widths[-1],
                  "uer": self.uer_widths[-1]}
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

    @classmethod
    def from_dict(cls, d: dict) -> "MCFRConfig":
        return cls(**{**d, "uee": SRMNetSpec(**d["uee"]),
                      "ablation": AblationFlags(**d["ablation"])})

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def reduced(cls, num_domains: int = 1):
        """Desk scale on the paper geometry: crop 75, narrow channels, 8 time bins."""
        return cls(input_crop=75, cfe_widths=(16, 32, 64), uer_widths=(16, 32, 32),
                   uee=SRMNetSpec(channels=(4, 8, 16), t_bins=8), fusion_channels=64,
                   fc_dims=(64, 64), num_domains=num_domains)

    @classmethod
    def tiny(cls, num_domains: int = 2):
        """Gradient-check scale: everything as small as the layer set allows."""
        return cls(input_crop=19, cfe_widths=(4, 6, 8), uer_widths=(4, 6, 6),
                   geometry="tiny", uee=SRMNetSpec(channels=(3, 4), t_bins=4),
                   fusion_channels=8, fc_dims=(8, 8), num_domains=num_domains)


def _conv_blocks(prefix: str, blocks, in_c: int) -> list[tuple]:
    """Conv (carrying its max pool when the block pools) and ReLU layers of
    a stack."""
    layers = []
    for i, block in enumerate(blocks):
        w_shape = (block.out_channels, in_c, block.kernel, block.kernel)
        pool = (block.pool, block.pool_stride) if block.pool else None
        layers += [("conv", f"{prefix}.{i}", w_shape, block.stride, block.padding, pool),
                   ("relu",)]
        in_c = block.out_channels
    return layers


def _layers(config: MCFRConfig, domain: int = 0) -> dict[str, list[tuple]]:
    """The layer tables of the differentiable path (see the module
    docstring), for every branch whether enabled or not."""
    uer = _conv_blocks("uer", config.uer, INPUT_GROUPS["rgb"])
    if _blocks_hw(config.input_crop, config.uer) != config.feature_hw:
        uer.append(("adapt", config.feature_hw))
    d0, d1 = config.fc_dims
    return {
        "uee": [],  # frozen: the event features enter the fusion as constants
        "cfe": [("conv", "tau", (3, sum(INPUT_GROUPS.values()), 1, 1), 1, 0, None),
                *_conv_blocks("cfe", config.cfe, 3)],
        "uer": uer,
        "fusion": [("conv", "fusion", (config.fusion_channels,
                                       config.fusion_in_channels, 1, 1), 1, 0, None),
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
        channels = (POLARITIES, *config.uee.channels)
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
                           for i in range(len(self.config.uee.channels))])

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


def _run(x, layers, params, caches=None):
    """Walk a layer table forward; returns y. Given a list, appends one
    cache per layer to it for _run_backward."""
    keep = caches is not None
    conv = conv2d_forward if keep else lambda *args: (conv2d(*args), None)
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            _, name, _, stride, pad, pool = layer
            x, cache = conv(x, params[f"{name}.w"], params[f"{name}.b"],
                            stride, pad, pool)
        elif kind == "fc":
            name = layer[1]
            x, cache = fc_forward(x, params[f"{name}.w"], params[f"{name}.b"])
        elif kind == "relu":
            x, cache = relu_forward(x)
        elif kind == "adapt":
            x, cache = adaptive_avgpool_forward(x, layer[1])
        else:  # flat
            x, cache = x.reshape(x.shape[0], -1), x.shape
        if keep:
            caches.append(cache)
    return x


def _run_backward(dy, layers, caches, params, grads, need_dx: bool = True):
    """Walk a layer table in reverse from the output gradient dy, popping
    each cache as it is used and storing conv and fc parameter gradients in
    grads; returns the input gradient, or None without need_dx."""
    for i, layer in reversed([*enumerate(layers)]):
        kind = layer[0]
        if kind == "conv":
            name = layer[1]
            dy, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(
                dy, caches.pop(), need_dx or i > 0)
        elif kind == "fc":
            name = layer[1]
            dy, grads[f"{name}.w"], grads[f"{name}.b"] = fc_backward(
                dy, caches.pop(), params[f"{name}.w"]
            )
        elif kind == "relu":
            dy = relu_backward(dy, caches.pop())
        elif kind == "adapt":
            dy = adaptive_avgpool_backward(dy, caches.pop())
        else:  # flat
            dy = dy.reshape(caches.pop())
    return dy


def _drop_input_groups(assembled: np.ndarray, flags: AblationFlags) -> np.ndarray:
    """The assembled input with the channel groups the variant leaves out
    set to zero; the input itself when it keeps them all."""
    kept = ABLATION_VARIANTS[flags.variant][1]
    keep = np.repeat([group in kept for group in INPUT_GROUPS], list(INPUT_GROUPS.values()))
    return assembled if keep.all() else np.where(keep[:, None, None], assembled, 0.0)


def _features(model: MCFRModel, assembled: np.ndarray,
              uee_feat: np.ndarray | None, cache: dict | None = None):
    """Flat features (N,D); a given dict gets one cache list per table."""
    cfg = model.config
    c, s = sum(INPUT_GROUPS.values()), cfg.input_crop
    if assembled.ndim != 4 or assembled.shape[1:] != (c, s, s) or not len(assembled):
        raise GeometryError(
            f"assembled input {assembled.shape} must be (N,{c},{s},{s}) with N >= 1")
    n = assembled.shape[0]
    if cfg.ablation.use_uee:
        if uee_feat is None:
            raise ConfigError("event branch enabled but uee_feat missing")
        expect = (n, cfg.uee.channels[-1], *cfg.feature_hw)
        if uee_feat.shape != expect:
            raise GeometryError(f"uee_feat shape {uee_feat.shape} != {expect}")
    assembled = _drop_input_groups(assembled, cfg.ablation)
    inputs = {"uee": uee_feat, "cfe": assembled, "uer": assembled[:, :INPUT_GROUPS["rgb"]]}
    tables = _layers(cfg)

    def run(name, x):
        return _run(x, tables[name], model.params,
                    None if cache is None else cache.setdefault(name, []))

    # the fixed order UEE|CFE|UER
    pieces = [run(name, inputs[name]) for name in cfg.branch_channels]
    return run("fusion", np.concatenate(pieces, axis=1))


def features_forward(model: MCFRModel, assembled: np.ndarray,
                     uee_feat: np.ndarray | None):
    """Branches + fusion, caching nothing: returns (flat features (N,D), None).

    assembled is (N,7,S,S); uee_feat is (N,C,h,w) aligned to feature_hw and
    treated as a constant (no gradient flows into it).
    """
    return _features(model, assembled, uee_feat), None


def classify_features(model: MCFRModel, feat: np.ndarray, domain: int):
    """fc4 -> fc5 -> fc6^domain on flat features; returns (logits, cache)."""
    require_int("domain", domain, 0, model.config.num_domains - 1)
    caches: list = []
    logits = _run(feat, _layers(model.config, domain)["head"], model.params, caches)
    return logits, {"domain": domain, "head": caches}


def forward(model: MCFRModel, assembled, uee_feat, domain: int):
    """Logits and the caches backward needs; inputs as for features_forward."""
    feat_cache: dict[str, list] = {}
    feat = _features(model, assembled, uee_feat, feat_cache)
    logits, fc_cache = classify_features(model, feat, domain)
    return logits, {"feat": feat_cache, "fc": fc_cache}


def backward(model: MCFRModel, cache: dict, dlogits: np.ndarray):
    """Full-path gradients for every trainable parameter reached from the
    loss; the event branch receives none by construction. It empties each
    cache list as it goes and builds no gradient for the data (tau, uer.0)."""
    fc_cache, feat_cache = cache["fc"], cache["feat"]
    tables = _layers(model.config, fc_cache["domain"])
    grads: dict[str, np.ndarray] = {}
    dfeat = _run_backward(dlogits, tables["head"], fc_cache["head"], model.params, grads)
    dconcat = _run_backward(dfeat, tables["fusion"], feat_cache["fusion"],
                            model.params, grads)
    offset = 0
    for name, width in model.config.branch_channels.items():
        _run_backward(dconcat[:, offset : offset + width], tables[name],
                      feat_cache[name], model.params, grads, need_dx=False)
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
    cached activations; gradients accumulate exactly as the mean over the
    whole batch. A non-finite loss or gradient raises NonFiniteError and
    leaves the model and the SGD state as they were.
    """
    require_int("chunk", chunk, 1)
    n = batch.assembled.shape[0]
    if n == 0:
        raise ConfigError("empty training batch")
    labels = np.asarray(batch.labels)
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ConfigError(f"need {n} integer labels, not {labels.dtype} {labels.shape}")
    if labels.min() < 0 or labels.max() > 1:
        raise ConfigError(f"labels must be 0 or 1, got {np.unique(labels)}")
    if batch.uee_feat is not None and np.shape(batch.uee_feat)[:1] != (n,):
        raise GeometryError(f"uee_feat of shape {np.shape(batch.uee_feat)} for {n} crops")
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
            g *= weight  # a fresh array: the first chunk's becomes the running sum
            if grads_acc.setdefault(k, g) is not g:
                grads_acc[k] += g
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
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
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
    if data[:4] != CHECKPOINT_MAGIC or len(data) < _HEADER.size:
        raise CheckpointError(f"{path}: bad magic or truncated header")
    _, version, cfg_len = _HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    body = _HEADER.size + cfg_len  # where the parameter data starts
    config = _decode_config(data[_HEADER.size : body], path)
    size = max(0, len(data) - body)  # bytes of parameter data
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
    values = np.frombuffer(data, dtype="<f4", offset=body)
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: non-finite parameter values")
    parts = np.split(values, np.cumsum(counts)[:-1])
    return MCFRModel(config, {name: part.astype(np.float64).reshape(shape)
                              for (name, shape), part in zip(shapes.items(), parts)})
