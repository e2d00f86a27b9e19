"""The library calls the workloads make, run directly or inside spans.

`Calls(None)` hands out the library functions themselves, so the untraced
run pays nothing. `Calls(tracer)` wraps every public function of the
layers in a span named "<module>.<function>", and replaces the composite
calls (`uee_forward_spikes`, `features_forward`, `classify_features`,
`train_step`) by walks that call the public `nn` and `snn` functions block
by block, so that each conv block, pool and SRM layer gets its own span.

A walk is a second copy of the program it times, so `check_walks` runs
each walk beside the library call it replaces and demands identical
results; the traced run publishes no row of a walk that fails.
"""

from __future__ import annotations

import inspect
from contextlib import nullcontext

import numpy as np

from mcfr import events, frames, network, nn, simulator, snn, stacking

LAYERS = {
    "simulator": simulator,
    "events": events,
    "frames": frames,
    "stacking": stacking,
    "snn": snn,
    "nn": nn,
    "network": network,
}

# the classification head's fc layers, in forward order
HEAD = ("fc4", "fc5", "fc6")


def _public_functions(module):
    for name, fn in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__):
            yield name, fn


class Calls:
    """Namespace of library entry points, optionally traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for short, module in LAYERS.items():
            for name, fn in _public_functions(module):
                if tracer is not None:
                    fn = _spanned(tracer, f"{short}.{name}", fn)
                setattr(self, name, fn)
        if tracer is not None:
            walk = Walk(tracer)
            self.uee_forward_spikes = walk.uee_forward_spikes
            self.features_forward = walk.features_forward
            self.classify_features = walk.classify_features
            self.train_step = walk.train_step

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

    def start_round(self, index: int) -> None:
        if self.tracer is not None:
            self.tracer.round = index


# Work counts recorded at a call's boundary, from its result.
_RESULT_COUNTS = {
    "stacking.stack_events": lambda f: (
        "stacking.events_per_window", int(f.c_pos.sum() + f.c_neg.sum())
    ),
    "simulator.frames_to_events": lambda s: ("simulator.events_out", len(s)),
}


def _spanned(tracer, span_name, fn):
    counter = _RESULT_COUNTS.get(span_name)

    def call(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(*counter(result))
        return result

    call.__name__ = fn.__name__
    return call


class Walk:
    """Block-by-block replicas of the composite library calls."""

    def __init__(self, tracer):
        self.tr = tracer

    # -- event branch ---------------------------------------------------

    def uee_forward_spikes(self, spikes, net, out_hw=None):
        tr = self.tr
        with tr.span("snn.uee_forward_spikes"):
            x = spikes
            for i, layer in enumerate(net.layers[:-1]):
                with tr.span(f"snn.srm_layer_forward.{i}"):
                    x = snn.srm_layer_forward(x, layer)
                fired = np.count_nonzero(x)
                tr.count(f"snn.spikes.{i}", fired)
                tr.count(f"snn.spike_rate.{i}", fired / x.size)
            with tr.span("snn.membrane_drive"):
                drive = snn.membrane_drive(x, net.layers[-1])
            with tr.span("snn.mean_over_time"):
                feat = snn.mean_over_time(drive)
            if out_hw is not None and feat.shape[1:] != tuple(out_hw):
                with tr.span("nn.adaptive_avgpool_forward.uee"):
                    pooled, _ = nn.adaptive_avgpool_forward(feat[None], out_hw)
                feat = pooled[0]
        return feat

    # -- forward ----------------------------------------------------------

    def _conv(self, block, x, w, b, stride=1, pad=0):
        n, c, h, wd = x.shape
        o, _, kh, kw = w.shape
        oh = nn.conv_out_dim(h, kh, stride, pad)
        ow = nn.conv_out_dim(wd, kw, stride, pad)
        # computed from shapes: one multiply-add per weight per output pixel
        self.tr.count(f"nn.conv2d_forward.{block}.gflop",
                      2 * n * o * oh * ow * c * kh * kw / 1e9)
        self.tr.count(f"nn.im2col_mb.{block}", n * c * kh * kw * oh * ow * 8 / 1e6)
        with self.tr.span(f"nn.conv2d_forward.{block}"):
            return nn.conv2d_forward(x, w, b, stride, pad)

    def _relu(self, block, x):
        with self.tr.span(f"nn.relu_forward.{block}"):
            y, mask = nn.relu_forward(x)
        dead = mask.size - np.count_nonzero(mask)
        self.tr.count(f"nn.relu_dead.{block}", dead)
        self.tr.count(f"nn.relu_dead_frac.{block}", dead / mask.size)
        return y, mask

    def _blocks_forward(self, x, blocks, params, prefix):
        caches = []
        for i, spec in enumerate(blocks):
            block = f"{prefix}.{i}"
            x, conv_cache = self._conv(block, x, params[f"{block}.w"],
                                       params[f"{block}.b"], spec.stride, spec.padding)
            x, mask = self._relu(block, x)
            pool_cache = None
            if spec.pool:
                with self.tr.span(f"nn.maxpool_forward.{block}"):
                    x, pool_cache = nn.maxpool_forward(x, spec.pool, spec.pool_stride)
            caches.append((conv_cache, mask, pool_cache))
        return x, caches

    def features_forward(self, model, assembled, uee_feat):
        cfg = model.config
        p = model.params
        n = assembled.shape[0]
        hw = cfg.feature_hw
        pieces = []
        cache: dict = {"n": n, "segments": []}
        with self.tr.span("network.features_forward"):
            if cfg.ablation.use_uee:
                pieces.append(uee_feat)
                cache["segments"].append(("uee", uee_feat.shape[1]))
            if cfg.ablation.use_cfe:
                tau_out, cache["tau"] = self._conv("tau", assembled, p["tau.w"], p["tau.b"])
                cfe_out, cache["cfe"] = self._blocks_forward(tau_out, cfg.cfe, p, "cfe")
                pieces.append(cfe_out)
                cache["segments"].append(("cfe", cfe_out.shape[1]))
            if cfg.ablation.use_uer:
                uer_out, cache["uer"] = self._blocks_forward(
                    assembled[:, :3], cfg.uer, p, "uer")
                cache["uer_adapt"] = None
                if uer_out.shape[2:] != hw:
                    with self.tr.span("nn.adaptive_avgpool_forward"):
                        uer_out, cache["uer_adapt"] = nn.adaptive_avgpool_forward(uer_out, hw)
                pieces.append(uer_out)
                cache["segments"].append(("uer", uer_out.shape[1]))
            concat = np.concatenate(pieces, axis=1)
            fused, cache["fusion"] = self._conv("fusion", concat, p["fusion.w"], p["fusion.b"])
            fused, cache["fusion_mask"] = self._relu("fusion", fused)
            cache["fused_shape"] = fused.shape
        return fused.reshape(n, -1), cache

    def classify_features(self, model, feat, domain):
        p = model.params
        tr = self.tr
        with tr.span("network.classify_features"):
            with tr.span("nn.fc_forward.fc4"):
                h4, c4 = nn.fc_forward(feat, p["fc4.w"], p["fc4.b"])
            h4, m4 = self._relu("fc4", h4)
            with tr.span("nn.fc_forward.fc5"):
                h5, c5 = nn.fc_forward(h4, p["fc5.w"], p["fc5.b"])
            h5, m5 = self._relu("fc5", h5)
            with tr.span("nn.fc_forward.fc6"):
                logits, c6 = nn.fc_forward(h5, p[f"fc6.{domain}.w"], p[f"fc6.{domain}.b"])
        return logits, {"c4": c4, "m4": m4, "c5": c5, "m5": m5, "c6": c6,
                        "domain": domain}

    # -- backward and update ------------------------------------------------

    def _blocks_backward(self, dy, blocks, caches, prefix, grads):
        for i in reversed(range(len(blocks))):
            block = f"{prefix}.{i}"
            conv_cache, mask, pool_cache = caches[i]
            if pool_cache is not None:
                with self.tr.span(f"nn.maxpool_backward.{block}"):
                    dy = nn.maxpool_backward(dy, pool_cache)
            with self.tr.span(f"nn.relu_backward.{block}"):
                dy = nn.relu_backward(dy, mask)
            with self.tr.span(f"nn.conv2d_backward.{block}"):
                dy, grads[f"{block}.w"], grads[f"{block}.b"] = nn.conv2d_backward(
                    dy, conv_cache)
        return dy

    def backward(self, model, cache, dlogits):
        cfg = model.config
        p = model.params
        tr = self.tr
        head = cache["fc"]
        feat = cache["feat"]
        k = head["domain"]
        grads: dict[str, np.ndarray] = {}
        with tr.span("network.backward"):
            with tr.span("nn.fc_backward.fc6"):
                dh5, grads[f"fc6.{k}.w"], grads[f"fc6.{k}.b"] = nn.fc_backward(
                    dlogits, head["c6"], p[f"fc6.{k}.w"])
            dh5 = nn.relu_backward(dh5, head["m5"])
            with tr.span("nn.fc_backward.fc5"):
                dh4, grads["fc5.w"], grads["fc5.b"] = nn.fc_backward(
                    dh5, head["c5"], p["fc5.w"])
            dh4 = nn.relu_backward(dh4, head["m4"])
            with tr.span("nn.fc_backward.fc4"):
                dfeat, grads["fc4.w"], grads["fc4.b"] = nn.fc_backward(
                    dh4, head["c4"], p["fc4.w"])
            dfused = nn.relu_backward(dfeat.reshape(feat["fused_shape"]), feat["fusion_mask"])
            with tr.span("nn.conv2d_backward.fusion"):
                dconcat, grads["fusion.w"], grads["fusion.b"] = nn.conv2d_backward(
                    dfused, feat["fusion"])
            offset = 0
            for name, width in feat["segments"]:
                seg = dconcat[:, offset : offset + width]
                offset += width
                if name == "cfe":
                    dtau = self._blocks_backward(seg, cfg.cfe, feat["cfe"], "cfe", grads)
                    with tr.span("nn.conv2d_backward.tau"):
                        _, grads["tau.w"], grads["tau.b"] = nn.conv2d_backward(
                            dtau, feat["tau"])
                elif name == "uer":
                    if feat["uer_adapt"] is not None:
                        with tr.span("nn.adaptive_avgpool_backward"):
                            seg = nn.adaptive_avgpool_backward(seg, feat["uer_adapt"])
                    self._blocks_backward(seg, cfg.uer, feat["uer"], "uer", grads)
        return grads

    def train_step(self, model, batch, domain, sgd_cfg, sgd_state,
                   chunk=inspect.signature(network.train_step).parameters["chunk"].default):
        tr = self.tr
        n = batch.assembled.shape[0]
        total_loss = 0.0
        grads_acc: dict[str, np.ndarray] = {}
        with tr.span("network.train_step"):
            for start in range(0, n, chunk):
                end = min(start + chunk, n)
                sl = slice(start, end)
                uee_sl = batch.uee_feat[sl] if batch.uee_feat is not None else None
                feat, feat_cache = self.features_forward(model, batch.assembled[sl], uee_sl)
                logits, head_cache = self.classify_features(model, feat, domain)
                with tr.span("nn.softmax_ce_forward"):
                    loss, ce_cache = nn.softmax_ce_forward(logits, batch.labels[sl])
                with tr.span("nn.softmax_ce_backward"):
                    dlogits = nn.softmax_ce_backward(ce_cache)
                grads = self.backward(model, {"feat": feat_cache, "fc": head_cache}, dlogits)
                weight = (end - start) / n
                total_loss += loss * weight
                for key, g in grads.items():
                    if key in grads_acc:
                        grads_acc[key] += g * weight
                    else:
                        grads_acc[key] = g * weight
            with tr.span("nn.sgd_step"):
                nn.sgd_step(model.params, grads_acc, sgd_cfg, sgd_state)
        return total_loss


def check_walks(tracer_factory, model, spikes, assembled, uee_feat, labels, domain):
    """Run each walk beside the library call it replaces.

    Returns {"uee": ok, "forward": ok, "train": ok}. The walks record into a
    throwaway tracer so the check leaves no spans in the run's trace.
    Outputs and updated parameters must be bitwise equal.
    """
    walk = Walk(tracer_factory())
    ok = {}
    hw = model.config.feature_hw
    ok["uee"] = np.array_equal(
        walk.uee_forward_spikes(spikes, model.uee, hw),
        snn.uee_forward_spikes(spikes, model.uee, hw),
    )
    feat_w, _ = walk.features_forward(model, assembled, uee_feat)
    feat_l, _ = network.features_forward(model, assembled, uee_feat)
    logits_w, _ = walk.classify_features(model, feat_w, domain)
    logits_l, _ = network.classify_features(model, feat_l, domain)
    ok["forward"] = np.array_equal(feat_w, feat_l) and np.array_equal(logits_w, logits_l)

    batch = network.TrainBatch(assembled, uee_feat, labels)
    sgd = network.default_sgd_config()
    m_walk, m_lib = model.copy(), model.copy()
    state_walk, state_lib = nn.SGDState(), nn.SGDState()
    # two steps, so the momentum buffers take part in the comparison
    same_loss = True
    for _ in range(2):
        loss_w = walk.train_step(m_walk, batch, domain, sgd, state_walk)
        loss_l = network.train_step(m_lib, batch, domain, sgd, state_lib)
        same_loss = same_loss and loss_w == loss_l
    ok["train"] = same_loss and all(
        np.array_equal(m_walk.params[k], m_lib.params[k]) for k in m_lib.params
    )
    return ok
