"""Span tracer that wraps pathsage's public functions from outside the package.

Installing a Tracer rebinds each traced function in every pathsage module
namespace that calls it, so nothing under `src/` changes. Each call records
a span (name, start, end, parent, encoder-layer tag) in memory; spans are
written out once, when the run ends. Autograd primitives also get their
output's `_vjp` closure wrapped, so backward time is attributed per
primitive and, through the tag taken when the op was created inside an
`_encoder_layer` call, per encoder layer.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter

import numpy as np

from pathsage import autograd, checkpoint, encoder, graph, head, metrics, model, sampler, trainer

# Autograd primitives reported per op (calls, forward seconds, vjp seconds).
AUTOGRAD_OPS = ("matmul", "add", "scale", "relu", "softmax", "layer_norm", "dropout",
                "transpose", "reshape", "select", "concat", "canonical_bucket_mean",
                "softmax_cross_entropy")
# span name -> every (namespace, attribute) that binds the traced function.
_TARGETS = {
    "graph.load_dataset": [(graph, "load_dataset")],
    "sampler.sample_paths": [(sampler, "sample_paths"), (trainer, "sample_paths"),
                             (metrics, "sample_paths")],
    "trainer.sample_many": [(trainer, "sample_many")],
    "encoder.encode_paths": [(encoder, "encode_paths"), (model, "encode_paths")],
    "head.head_forward": [(head, "head_forward"), (model, "head_forward")],
    "head.loss": [(head, "loss")],
    "head.predict": [(head, "predict"), (metrics, "predict")],
    "model.forward_batch": [(model.PathSageModel, "forward_batch")],
    "autograd.backward": [(autograd, "backward")],
    "trainer.train_epoch": [(trainer, "train_epoch")],
    "trainer.zero_grad": [(model.PathSageModel, "zero_grad")],
    "trainer.clip": [(trainer, "_clip_grads")],
    "trainer.adam_step": [(trainer, "adam_step")],
    "checkpoint.save_checkpoint": [(checkpoint, "save_checkpoint"), (trainer, "save_checkpoint")],
    "checkpoint.load_checkpoint": [(checkpoint, "load_checkpoint"), (trainer, "load_checkpoint")],
    "checkpoint.crc64": [(checkpoint, "crc64")],
    "metrics.eval_split": [(metrics, "eval_split")],
    "metrics.micro_f1": [(metrics, "micro_f1"), (trainer, "micro_f1")],
}

# Per-layer metric name -> unit. Counts and seconds are per traced trial.
PER_LAYER_UNITS = {
    "graph.load_dataset_s": "s",
    "sampler.sample_paths.calls": "count",
    "sampler.sample_paths.s": "s",
    "sampler.us_per_node": "us",
    "sampler.walk_steps": "count",
    "sampler.share_pct": "%",
    "trainer.sample_many.s": "s",
    "encoder.encode_paths.calls": "count",
    "encoder.encode_paths.s": "s",
    "encoder.tokens": "count",
    "encoder.layer0.fwd_s": "s",
    "encoder.layer0.bwd_s": "s",
    "encoder.layer1.fwd_s": "s",
    "encoder.layer1.bwd_s": "s",
    **{f"autograd.{op}.{k}": u for op in AUTOGRAD_OPS
       for k, u in (("calls", "count"), ("fwd_s", "s"), ("vjp_s", "s"))},
    "autograd.backward.s": "s",
    "autograd.backward.self_s": "s",
    "autograd.recorded_nodes": "count",
    "autograd.recorded_nodes_per_step": "count",
    "autograd.recorded_nodes_per_eval_batch": "count",
    "autograd.matmul.gflop": "GFLOP",
    "autograd.matmul.gflop_per_s": "GFLOP/s",
    "autograd.matmul.vjp_share_pct": "%",
    "head.head_forward.s": "s",
    "head.loss.s": "s",
    "head.predict.s": "s",
    "model.forward_batch.s": "s",
    "model.forward_batch.self_s": "s",
    "trainer.train_epoch.s": "s",
    "trainer.train_epoch.self_s": "s",
    "trainer.zero_grad.s": "s",
    "trainer.clip.s": "s",
    "trainer.adam_step.s": "s",
    "checkpoint.save_checkpoint.s": "s",
    "checkpoint.load_checkpoint.s": "s",
    "checkpoint.crc64.s": "s",
    "checkpoint.crc64.bytes": "B",
    "checkpoint.crc64.share_pct": "%",
    "checkpoint.file_bytes": "B",
    "metrics.eval_split.s": "s",
    "metrics.eval_split.self_s": "s",
    "metrics.micro_f1.s": "s",
    "trace.overhead.train_pct": "%",
    "trace.overhead.eval_pct": "%",
}


class Tracer:
    """Records spans for every traced call while installed.

    Spans live in parallel lists indexed by span id; a span's parent is the
    span open on the stack when it started (single-threaded program).
    """

    def __init__(self):
        self.names = []        # span name id
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = []         # encoder layer index, or -1
        self.name_ids = {}
        self.stack = []
        self.layer_tag = -1
        self.layer_ids = {}    # id(EncoderLayerParams) -> layer index
        self.phase = None      # "train" or "eval", set by the caller
        self.counts = Counter()
        self._saved = []

    # -- span recording --------------------------------------------------
    def _nid(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.name_ids)
        return nid

    def _open(self, nid, tag):
        idx = len(self.starts)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tags.append(tag)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _span(self, name, fn, on_call=None):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._open(nid, self.layer_tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _op(self, op, fn):
        fwd, vjp_nid = self._nid(f"autograd.{op}.fwd"), self._nid(f"autograd.{op}.vjp")
        is_matmul = op == "matmul"

        def traced(*args, **kwargs):
            idx = self._open(fwd, self.layer_tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            inner = out._vjp
            flop = 2 * out.data.size * args[0].shape[-1] if is_matmul else 0
            self.counts["autograd.matmul.flop"] += flop
            if inner is not None:
                self.counts[f"autograd.recorded_nodes.{self.phase}"] += 1
                tag = self.layer_tag

                def timed_vjp(g):
                    # the two vjp GEMMs cost twice the forward product
                    self.counts["autograd.matmul.flop"] += 2 * flop
                    j = self._open(vjp_nid, tag)
                    try:
                        return inner(g)
                    finally:
                        self._close(j)

                out._vjp = timed_vjp
            return out

        return traced

    def _layer(self, fn):
        nid = self._nid("encoder.layer")

        def traced(layer, *args, **kwargs):
            outer = self.layer_tag
            self.layer_tag = self.layer_ids[id(layer)]
            idx = self._open(nid, self.layer_tag)
            try:
                return fn(layer, *args, **kwargs)
            finally:
                self._close(idx)
                self.layer_tag = outer

        return traced

    # -- counters taken at call boundaries ---------------------------------
    def _count_walks(self, args, kwargs):
        plan = args[2] if len(args) > 2 else kwargs["plan"]
        self.counts["sampler.walk_steps"] += sum(
            length * n for length, n in enumerate(plan.counts_per_length, start=1))

    def _count_tokens(self, args, kwargs):
        params = args[0]
        feats = args[2] if len(args) > 2 else kwargs["path_features"]
        n, t = feats.shape[:2]
        self.counts["encoder.tokens"] += n * t
        for k, layer in enumerate(params.layers):
            self.layer_ids[id(layer)] = k

    def _count_crc(self, args, kwargs):
        self.counts["checkpoint.crc64.bytes"] += len(args[0])

    # -- install / uninstall -----------------------------------------------
    def _rebind(self, owner, attr, new):
        old = owner.__dict__[attr]
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self):
        hooks = {"sampler.sample_paths": self._count_walks,
                 "encoder.encode_paths": self._count_tokens,
                 "checkpoint.crc64": self._count_crc}
        for name, bindings in _TARGETS.items():
            for owner, attr in bindings:
                self._rebind(owner, attr, self._span(name, owner.__dict__[attr], hooks.get(name)))
        for op in AUTOGRAD_OPS:
            self._rebind(autograd, op, self._op(op, getattr(autograd, op)))
        self._rebind(encoder, "_encoder_layer", self._layer(encoder._encoder_layer))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- analysis ------------------------------------------------------------
    def analyse(self):
        """-> (totals, layers, hygiene). Totals map span name to (calls,
        seconds, self seconds); layers map encoder layer index to (forward
        seconds, backward seconds)."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=np.int64)
        names = np.asarray(self.names, dtype=np.int64)
        tags = np.asarray(self.tags, dtype=np.int64)
        dur = ends - starts
        has_parent = parents >= 0
        p = parents[has_parent]
        # a child must lie inside its parent's interval
        outside = int(((starts[has_parent] < starts[p]) | (ends[has_parent] > ends[p])).sum())
        child_time = np.zeros(len(dur))
        np.add.at(child_time, p, dur[has_parent])
        self_time = dur - child_time
        by_name = {}
        for name, nid in self.name_ids.items():
            sel = names == nid
            by_name[name] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        layer_nid = self.name_ids.get("encoder.layer", -1)
        vjp_nids = np.asarray([nid for name, nid in self.name_ids.items()
                               if name.endswith(".vjp")], dtype=np.int64)
        is_vjp = np.isin(names, vjp_nids)
        layers = {}
        for k in sorted(set(self.layer_ids.values())):
            fwd = float(dur[(names == layer_nid) & (tags == k)].sum())
            bwd = float(dur[is_vjp & (tags == k)].sum())
            layers[k] = (fwd, bwd)
        hygiene = {"spans": len(dur), "child_outside_parent": outside,
                   "negative_self_time": int((self_time < -1e-9).sum()),
                   "open_spans": len(self.stack)}
        return by_name, layers, hygiene

    def span_durations(self, name):
        nid = self.name_ids.get(name)
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == nid]

    def write(self, path):
        """Write all spans as gzip'd JSON: a name table and one row per span."""
        table = sorted(self.name_ids, key=self.name_ids.get)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": table,
                       "columns": ["name", "start", "end", "parent", "layer"],
                       "spans": list(zip(self.names, self.starts, self.ends,
                                         self.parents, self.tags))}, fh)


def per_layer_metrics(tracer, phase, overhead):
    """Per-layer metrics from a tracer's spans, normalised per trial of the
    traced `phase` (a bench.Phase).

    `overhead` maps "train"/"eval" to the traced-vs-untraced throughput drop
    in percent. Returns ({name: value}, hygiene).
    """
    by_name, layers, hygiene = tracer.analyse()
    n = phase.trials
    steps, eval_batches = len(phase.step_ms), phase.eval_batches

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0] / n

    def secs(name):
        return by_name.get(name, (0, 0.0, 0.0))[1] / n

    def self_secs(name):
        return by_name.get(name, (0, 0.0, 0.0))[2] / n

    def pct(part, whole):
        return 100.0 * part / whole if whole else 0.0

    c = tracer.counts
    load = tracer.span_durations("graph.load_dataset")
    sample_calls = calls("sampler.sample_paths")
    busy = secs("trainer.train_epoch") + secs("metrics.eval_split")
    recorded = c["autograd.recorded_nodes.train"] + c["autograd.recorded_nodes.eval"]
    mm_time = secs("autograd.matmul.fwd") + secs("autograd.matmul.vjp")
    mm_gflop = c["autograd.matmul.flop"] / n / 1e9
    out = {
        "graph.load_dataset_s": float(np.median(load)) if load else 0.0,
        "sampler.sample_paths.calls": sample_calls,
        "sampler.sample_paths.s": secs("sampler.sample_paths"),
        "sampler.us_per_node": 1e6 * secs("sampler.sample_paths") / sample_calls if sample_calls else 0.0,
        "sampler.walk_steps": c["sampler.walk_steps"] / n,
        "sampler.share_pct": pct(secs("sampler.sample_paths"), busy),
        "trainer.sample_many.s": secs("trainer.sample_many"),
        "encoder.encode_paths.calls": calls("encoder.encode_paths"),
        "encoder.encode_paths.s": secs("encoder.encode_paths"),
        "encoder.tokens": c["encoder.tokens"] / n,
    }
    for k in (0, 1):
        fwd, bwd = layers.get(k, (0.0, 0.0))
        out[f"encoder.layer{k}.fwd_s"] = fwd / n
        out[f"encoder.layer{k}.bwd_s"] = bwd / n
    for op in AUTOGRAD_OPS:
        out[f"autograd.{op}.calls"] = calls(f"autograd.{op}.fwd")
        out[f"autograd.{op}.fwd_s"] = secs(f"autograd.{op}.fwd")
        out[f"autograd.{op}.vjp_s"] = secs(f"autograd.{op}.vjp")
    out.update({
        "autograd.backward.s": secs("autograd.backward"),
        "autograd.backward.self_s": self_secs("autograd.backward"),
        "autograd.recorded_nodes": recorded / n,
        "autograd.recorded_nodes_per_step": c["autograd.recorded_nodes.train"] / steps if steps else 0.0,
        "autograd.recorded_nodes_per_eval_batch": (c["autograd.recorded_nodes.eval"] / eval_batches
                                                   if eval_batches else 0.0),
        "autograd.matmul.gflop": mm_gflop,
        "autograd.matmul.gflop_per_s": mm_gflop / mm_time if mm_time else 0.0,
        "autograd.matmul.vjp_share_pct": pct(secs("autograd.matmul.vjp"), secs("trainer.train_epoch")),
        "head.head_forward.s": secs("head.head_forward"),
        "head.loss.s": secs("head.loss"),
        "head.predict.s": secs("head.predict"),
        "model.forward_batch.s": secs("model.forward_batch"),
        "model.forward_batch.self_s": self_secs("model.forward_batch"),
        "trainer.train_epoch.s": secs("trainer.train_epoch"),
        "trainer.train_epoch.self_s": self_secs("trainer.train_epoch"),
        "trainer.zero_grad.s": secs("trainer.zero_grad"),
        "trainer.clip.s": secs("trainer.clip"),
        "trainer.adam_step.s": secs("trainer.adam_step"),
        "checkpoint.save_checkpoint.s": secs("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.s": secs("checkpoint.load_checkpoint"),
        "checkpoint.crc64.s": secs("checkpoint.crc64"),
        "checkpoint.crc64.bytes": c["checkpoint.crc64.bytes"] / n,
        "checkpoint.crc64.share_pct": pct(secs("checkpoint.crc64"),
                                          secs("checkpoint.save_checkpoint")
                                          + secs("checkpoint.load_checkpoint")),
        "checkpoint.file_bytes": phase.file_bytes,
        "metrics.eval_split.s": secs("metrics.eval_split"),
        "metrics.eval_split.self_s": self_secs("metrics.eval_split"),
        "metrics.micro_f1.s": secs("metrics.micro_f1"),
        "trace.overhead.train_pct": overhead["train"],
        "trace.overhead.eval_pct": overhead["eval"],
    })
    return out, hygiene
