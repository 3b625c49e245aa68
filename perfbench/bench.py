"""Workloads, measurement and correctness checks of the pathsage benchmark.

One run generates a dataset from the workload seed (untimed), then
alternates set-up repetitions with the workload's *trial* until the time
budget is spent. A trial is a fixed, seed-determined unit of work driven
through the public API: initialise the model, then for each epoch train,
save and load the checkpoint, and evaluate. Every trial of a run must
reproduce the same result digest, so the digest does not depend on how many
trials fit in the budget. See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pathsage import graph, head, metrics, trainer
from pathsage.model import ModelConfig, PathSageModel
from pathsage.sampler import rng_for
from pathsage.synth import synth_planted_khop
from pathsage.trainer import OptimizerState, TrainConfig

from tracer import PER_LAYER_UNITS, Tracer, per_layer_metrics

_PAPER = TrainConfig()
NUM_CLASSES = 4
EVAL_BATCH = 64
SETUP_SLICE_S = 0.1  # set-up repetitions before each trial


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    num_nodes: int
    avg_degree: float
    k: int
    depth_s: int
    counts: tuple
    hidden: int
    heads: int
    epochs: int              # training epochs per trial
    train_nodes: int | None  # leading nodes of the train split; None = all
    eval_nodes: int | None   # leading test nodes evaluated after each epoch; None = all

    def train_config(self, seed):
        return TrainConfig(epochs=self.epochs, seed=seed, depth_s=self.depth_s,
                           counts_per_length=self.counts, hidden=self.hidden,
                           heads=self.heads)

    def model_config(self, g, labels):
        return ModelConfig(feature_dim=g.feature_dim, num_classes=labels.num_classes,
                           task=labels.task, hidden=self.hidden, heads=self.heads,
                           depth_s=self.depth_s)


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("ring3-small", topology="ring", num_nodes=1000, avg_degree=1.0, k=3,
             depth_s=4, counts=(2, 2, 4, 4), hidden=32, heads=4, epochs=10,
             train_nodes=None, eval_nodes=None),
    Workload("ring3-paper", topology="ring", num_nodes=1000, avg_degree=1.0, k=3,
             depth_s=_PAPER.depth_s, counts=_PAPER.counts_per_length, hidden=_PAPER.hidden,
             heads=_PAPER.heads, epochs=1, train_nodes=32, eval_nodes=128),
    Workload("er-infer", topology="er", num_nodes=20000, avg_degree=6.0, k=2,
             depth_s=_PAPER.depth_s, counts=_PAPER.counts_per_length, hidden=32, heads=4,
             epochs=1, train_nodes=128, eval_nodes=1024),
)}

# End-to-end metrics bounded in BENCHMARK.json -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "train_nodes_per_s": "nodes/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_tail": "ms",
    "eval_nodes_per_s": "nodes/s",
    "ckpt_save_s": "s",
    "ckpt_load_s": "s",
    "peak_rss_mb": "MB",
}
# Reported with the end-to-end metrics but not bounded: the F1 of a few epochs
# varies too much between dataset seeds, and the failed share is normally 0.
REPORT_ONLY_UNITS = {"test_micro_f1": "f1", "failed_op_share": "ratio"}


class RunFailure(Exception):
    """An operation produced a wrong result (round trip, F1 range, replay)."""


class Recorder:
    """Light instrumentation, always on: marks step ends and captures what
    the result digest covers (per-step losses, eval predictions). Costs a
    few microseconds per step."""

    def __init__(self):
        self.mark = 0.0
        self.step_ms = []
        self.losses = []
        self.preds = []
        self._saved = []

    def install(self):
        def adam_step(*args, _inner=trainer.adam_step, **kwargs):
            _inner(*args, **kwargs)
            now = perf_counter()
            self.step_ms.append(1e3 * (now - self.mark))
            self.mark = now

        def loss(*args, _inner=head.loss, **kwargs):
            out = _inner(*args, **kwargs)
            self.losses.append(out.item())
            return out

        def predict(*args, _inner=metrics.predict, **kwargs):
            out = _inner(*args, **kwargs)
            self.preds.append(np.asarray(out))
            return out

        for owner, attr, new in ((trainer, "adam_step", adam_step), (head, "loss", loss),
                                 (metrics, "predict", predict)):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


@dataclass
class Phase:
    """Measurements accumulated over the trials of one phase (untraced or traced)."""
    trials: int = 0
    train_s: float = 0.0
    train_nodes: int = 0
    eval_s: float = 0.0
    eval_nodes: int = 0
    eval_batches: int = 0
    step_ms: list = field(default_factory=list)
    save_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    f1: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    file_bytes: int = 0

    @property
    def ops(self):
        return len(self.step_ms) + self.eval_batches + len(self.save_s) + len(self.load_s)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_round_trip(model, state, cfg, loaded):
    """save -> load must give bit-identical parameters, Adam state and config."""
    model2, state2, cfg2, _ = loaded
    params = dict(model.named_params())
    params2 = dict(model2.named_params())
    ok = (params.keys() == params2.keys()
          and all(_same_bits(p.data, params2[n].data) for n, p in params.items())
          and state.m.keys() == state2.m.keys() and state.v.keys() == state2.v.keys()
          and all(_same_bits(state.m[n], state2.m[n]) and _same_bits(state.v[n], state2.v[n])
                  for n in state.m)
          and state.step == state2.step and cfg == cfg2)
    if not ok:
        raise RunFailure("checkpoint round trip changed the model or optimizer state")


def _digest(losses, model, preds):
    h = hashlib.sha256()
    h.update(np.asarray(losses, dtype=np.float64).tobytes())
    for name, p in model.named_params():
        h.update(name.encode())
        h.update(p.data.tobytes())
    for batch in preds:
        h.update(np.ascontiguousarray(batch, dtype=np.int64).tobytes())
    return h.hexdigest()


def run_trial(w, data, seed, ckpt_path, rec, phase, tracer=None):
    """Train from a fresh model; after each epoch save, load and check the
    checkpoint, then evaluate the test nodes as `fit`'s eval_fn would."""
    g, labels, splits = data
    cfg = w.train_config(seed)
    train_nodes = splits.train if w.train_nodes is None else splits.train[:w.train_nodes]
    eval_nodes = splits.test if w.eval_nodes is None else splits.test[:w.eval_nodes]
    total_steps = math.ceil(len(train_nodes) / cfg.batch_size) * cfg.epochs
    model = PathSageModel.init(w.model_config(g, labels), rng_for(seed))
    state = OptimizerState()
    rec.losses, rec.preds, rec.step_ms = [], [], []
    for epoch in range(cfg.epochs):
        if tracer:
            tracer.phase = "train"
        t0 = rec.mark = perf_counter()
        trainer.train_epoch(model, g, labels, train_nodes, cfg, epoch, state, total_steps)
        phase.train_s += perf_counter() - t0
        phase.train_nodes += len(train_nodes)
        phase.step_ms.extend(rec.step_ms)
        rec.step_ms = []

        t0 = perf_counter()
        trainer.save_model_checkpoint(ckpt_path, model, state, cfg, next_epoch=epoch + 1)
        phase.save_s.append(perf_counter() - t0)
        phase.file_bytes = os.path.getsize(ckpt_path)
        t0 = perf_counter()
        loaded = trainer.load_model_checkpoint(ckpt_path)
        phase.load_s.append(perf_counter() - t0)
        _check_round_trip(model, state, cfg, loaded)

        if tracer:
            tracer.phase = "eval"
        batches_before = len(rec.preds)
        t0 = perf_counter()
        f1, _ = metrics.eval_split(model, g, labels, eval_nodes, cfg.counts_per_length, seed,
                                   batch_size=EVAL_BATCH, run=epoch)
        phase.eval_s += perf_counter() - t0
        phase.eval_nodes += len(eval_nodes)
        phase.eval_batches += len(rec.preds) - batches_before
        if not 0.0 <= f1 <= 1.0:
            raise RunFailure(f"test micro-F1 {f1} outside [0, 1]")
    if not all(math.isfinite(x) for x in rec.losses):
        raise RunFailure("non-finite training loss")
    phase.f1.append(f1)
    phase.digests.append(_digest(rec.losses, model, rec.preds))
    phase.trials += 1


def time_setup(w, ds_dir, seed, phase, min_seconds):
    """Time load_dataset + PathSageModel.init at least once, repeating until
    `min_seconds` have passed."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        g, labels, _ = graph.load_dataset(ds_dir)
        PathSageModel.init(w.model_config(g, labels), rng_for(seed))
        now = perf_counter()
        phase.setup_s.append(now - t0)
        if now - start >= min_seconds:
            return


def run_phase(w, ds_dir, data, seed, ckpt_path, rec, phase, budget_s, tracer=None):
    """Alternate set-up repetitions and trials into `phase` while the next
    round is predicted to end inside the budget; spreading set-up over the
    whole run keeps one slow stretch of the machine from deciding its median."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        time_setup(w, ds_dir, seed, phase, SETUP_SLICE_S)
        run_trial(w, data, seed, ckpt_path, rec, phase, tracer)
        now = perf_counter()
        if now - start + (now - t0) > budget_s:
            return


def tail(values):
    """Highest whole percentile with at least 10 samples above it, by nearest
    rank -> (value, label). With fewer than 20 samples that percentile would
    lie below the median, so the median is returned, labelled "p50"."""
    n = len(values)
    q = 100 * (n - 10) // n
    if q <= 50:
        return statistics.median(values), "p50"
    return sorted(values)[math.ceil(q * n / 100) - 1], f"p{q}"


def environment(seed):
    try:  # numpy >= 1.25 reports its build configuration as a dict
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "seed": seed}


def end_to_end(phase, peak_rss_mb):
    """-> {name: {"value", "unit", "samples"[, "percentile"]}} for a phase
    in which no op failed."""
    tail_ms, tail_label = tail(phase.step_ms)
    values = {
        "setup_s": (statistics.median(phase.setup_s), len(phase.setup_s)),
        "train_nodes_per_s": (phase.train_nodes / phase.train_s, len(phase.step_ms)),
        "train_step_ms_p50": (statistics.median(phase.step_ms), len(phase.step_ms)),
        "train_step_ms_tail": (tail_ms, len(phase.step_ms)),
        "eval_nodes_per_s": (phase.eval_nodes / phase.eval_s, phase.eval_batches),
        # Means, not medians: the host's speed switches between two states for
        # seconds at a time, and a median of a few samples snaps to one state.
        "ckpt_save_s": (statistics.fmean(phase.save_s), len(phase.save_s)),
        "ckpt_load_s": (statistics.fmean(phase.load_s), len(phase.load_s)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "test_micro_f1": (statistics.fmean(phase.f1), len(phase.f1)),
        "failed_op_share": (0.0, phase.ops),
    }
    units = {**E2E_UNITS, **REPORT_ONLY_UNITS}
    out = {name: {"value": value, "unit": units[name], "samples": n}
           for name, (value, n) in values.items()}
    out["train_step_ms_tail"]["percentile"] = tail_label
    return out


def run(w, seed, seconds, trace, root):
    """Run one workload -> (result line dict, report dict)."""
    seed = seed % 2**32
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work))
    rec = Recorder()
    tracer = Tracer() if trace else None
    untraced, traced = Phase(), Phase()
    error = None
    report = {"workload": w.name, "trace": trace, "env": environment(seed)}
    try:
        ds_dir = synth_planted_khop(tmp / "data", w.num_nodes, w.avg_degree, w.k,
                                    NUM_CLASSES, seed, topology=w.topology)
        data = graph.load_dataset(ds_dir)
        rec.install()
        ckpt = tmp / "model.psck"
        # A traced run spends half its budget untraced, so it can state its
        # own overhead against the same seed and process.
        run_phase(w, ds_dir, data, seed, ckpt, rec, untraced,
                  seconds / 2 if trace else seconds)
        if tracer:
            tracer.install()
            try:
                run_phase(w, ds_dir, data, seed, ckpt, rec, traced, seconds / 2, tracer)
            finally:
                tracer.uninstall()
        if len(set(untraced.digests + traced.digests)) != 1:
            raise RunFailure("trials of one seed gave different result digests")
    except Exception as exc:  # the benchmark boundary: report any failure
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        rec.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = untraced.ops + traced.ops
    if error is not None:
        # the op in flight failed; the run stops at the first failure
        report.update({"error": error, "failed_op_share": 1 / (attempted + 1)})
        return {"correct": False, "attempted": attempted + 1, "failed": 1, "metrics": {}}, report

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end(untraced, peak_rss_mb)
    report.update({"result_digest": untraced.digests[0], "trials": untraced.trials,
                   "end_to_end": e2e})
    correct = True
    if trace:
        rate = {"train": lambda p: p.train_nodes / p.train_s,
                "eval": lambda p: p.eval_nodes / p.eval_s}
        overhead = {k: 100.0 * (1.0 - f(traced) / f(untraced)) for k, f in rate.items()}
        per_layer, hygiene = per_layer_metrics(tracer, traced, overhead)
        trace_path = work / f"trace-{w.name}.json.gz"
        tracer.write(trace_path)
        correct = not (hygiene["child_outside_parent"] or hygiene["negative_self_time"]
                       or hygiene["open_spans"])
        report.update({"traced_trials": traced.trials, "hygiene": hygiene,
                       "trace_file": str(trace_path.relative_to(root)),
                       "per_layer": {n: {"value": v, "unit": PER_LAYER_UNITS[n]}
                                     for n, v in per_layer.items()}})
        chosen = report["per_layer"]
    else:
        chosen = {n: e2e[n] for n in E2E_UNITS}
    line = {"correct": correct, "attempted": attempted, "failed": 0,
            "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in chosen.items()}}
    return line, report


def main(workload, seed, seconds, trace, root):
    line, report = run(WORKLOADS[workload], seed, seconds, trace, root)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1
