"""Mini-batch training: Adam with linear warmup/decay, deterministic replay.

All stochastic choices (epoch shuffles, path sampling, dropout) come from
the keyed streams of `sampler.stream_key`, so a run can be
replayed or resumed from an epoch-boundary checkpoint and produce the
identical loss sequence.
"""

from __future__ import annotations

import json
import logging
import math
import resource
import sys
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autograd as ag
from . import head as head_ops
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (IncompleteCheckpoint, InvalidSetting, NonFiniteGradient, NonFiniteLoss,
                     NumericalError, ShapeMismatch)
from .metrics import micro_f1
from .model import ModelConfig, PathSageModel
from .sampler import SamplePlan, sample_paths, stream_rng

log = logging.getLogger(__name__)

GRAD_CLIP = 5.0  # global L2 norm the gradients of a step are clipped to
PATIENCE = 10  # epochs without a better validation micro-F1 before fit stops
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the phases of a training step timed by train_epoch, in step order
PHASES = ("sample", "forward", "backward", "optimizer")


@dataclass
class TrainConfig:
    epochs: int = 10
    seed: int = 0
    depth_s: int = ModelConfig.depth_s
    counts_per_length: tuple = (5, 5, 5, 5, 5, 10, 10, 10)
    hidden: int = ModelConfig.hidden
    heads: int = ModelConfig.heads
    layers: int = ModelConfig.layers
    batch_size: int = 32
    lr: float = 1e-3
    warmup_ratio: float = 0.1
    dropout_encoder: float = ModelConfig.dropout_encoder
    dropout_output: float = ModelConfig.dropout_output

    def __post_init__(self):
        self.counts_per_length = SamplePlan(self.counts_per_length).counts_per_length
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise InvalidSetting(f"warmup_ratio {self.warmup_ratio} outside [0,1]")
        if self.batch_size < 1:
            raise InvalidSetting("batch_size must be >= 1")
        if self.epochs < 1:
            raise InvalidSetting("epochs must be >= 1")
        if not 0.0 <= self.lr < math.inf:
            raise InvalidSetting(f"lr {self.lr} is not a finite number >= 0")
        if len(self.counts_per_length) != self.depth_s:
            raise InvalidSetting(f"{len(self.counts_per_length)} counts for depth {self.depth_s}")

    def model_config(self, feature_dim, num_classes, task):
        """This run's ModelConfig for a dataset of these features, classes and task."""
        shared = {f.name for f in fields(self)} & {f.name for f in fields(ModelConfig)}
        return ModelConfig(feature_dim=feature_dim, num_classes=num_classes, task=task,
                           **{name: getattr(self, name) for name in shared})


def _run_model_config(config, cfg):
    """cfg's ModelConfig for config's dataset; InvalidSetting names a field they differ in."""
    expected = cfg.model_config(config.feature_dim, config.num_classes, config.task)
    for name, value in vars(expected).items():
        if getattr(config, name) != value:
            raise InvalidSetting(f"model {name} {getattr(config, name)!r} != train {name} {value!r}")
    return expected


def lr_at(step, total_steps, cfg: TrainConfig):
    """Piecewise-linear schedule: 0 -> lr over the first ceil(ratio*total)
    steps, then lr -> 0 at total_steps. A step outside [0, total_steps]
    raises InvalidSetting."""
    if not 0 <= step <= total_steps:
        raise InvalidSetting(f"step {step} outside the schedule's [0, {total_steps}]")
    warmup = math.ceil(cfg.warmup_ratio * total_steps)
    if step <= warmup:
        return cfg.lr * step / warmup if warmup else (cfg.lr if step else 0.0)
    return cfg.lr * (total_steps - step) / (total_steps - warmup)


@dataclass
class OptimizerState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(named_params, grads, state: OptimizerState, lr):
    """Standard bias-corrected Adam update, in the parameter dtype."""
    state.step += 1
    t = state.step
    for name, param in named_params:
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != param.data.shape:
            raise ShapeMismatch(f"gradient shape for {name}", g.shape, param.data.shape)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(param.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(param.data)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** t)
        vhat = v / (1 - ADAM_BETA2 ** t)
        param.data -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(param.dtype)


def _clip_grads(grads):
    """Scale the gradients in place to a global L2 norm of at most GRAD_CLIP
    and return the norm before scaling; a non-finite norm scales nothing."""
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if GRAD_CLIP < total < math.inf:
        factor = GRAD_CLIP / total
        for g in grads.values():
            g *= factor
    return total


def sample_many(graph, nodes, plan, seed, epoch):
    """The batch's walks, from its nodes' walk streams of `epoch`."""
    return sample_paths(graph, nodes, plan, seed, "walk", epoch)


def train_epoch(model: PathSageModel, graph, labels, train_nodes, cfg: TrainConfig,
                epoch, state: OptimizerState, total_steps, phases=None):
    """One pass over the training nodes; fresh paths are sampled per epoch.

    Returns (mean loss, micro-F1 of the in-epoch predictions, largest
    pre-clip gradient norm of its steps). At DEBUG level each step logs a
    JSON `step` line with its epoch, step, loss, pre-clip grad_norm and lr.
    A dict `phases` gains, under each `PHASES` name, the wall seconds the
    steps spent sampling walks, in the forward pass and loss, in backward,
    and in clip plus Adam. An epoch whose steps would run past
    `total_steps` raises InvalidSetting before its first step.
    """
    steps = math.ceil(len(train_nodes) / cfg.batch_size)
    if state.step + steps > total_steps:
        raise InvalidSetting(f"epoch {epoch} would run steps {state.step + 1} to "
                             f"{state.step + steps}, past total_steps {total_steps}")
    plan = SamplePlan(cfg.counts_per_length)
    order = stream_rng(cfg.seed, "shuffle", epoch).permutation(train_nodes)
    losses = []
    preds, targets = [], []
    max_norm = 0.0
    phases = {} if phases is None else phases
    clock = time.perf_counter
    for b0 in range(0, len(order), cfg.batch_size):
        t0 = clock()
        nodes = order[b0:b0 + cfg.batch_size]
        walks = sample_many(graph, nodes, plan, cfg.seed, epoch)
        t1 = clock()
        drop_rng = stream_rng(cfg.seed, "dropout", epoch, b0)
        model.zero_grad()
        logits = model.forward_batch(graph, walks, rng=drop_rng)
        target = labels.labels[nodes]
        loss = head_ops.loss(logits, target, labels.task)
        value = loss.item()
        if not math.isfinite(value):
            raise NonFiniteLoss(
                f"non-finite loss {value} at epoch {epoch} step {state.step} "
                f"(lr={lr_at(state.step + 1, total_steps, cfg):.3e})")
        t2 = clock()
        ag.backward(loss)
        grads = {name: p.grad for name, p in model.named_params() if p.grad is not None}
        t3 = clock()
        norm = _clip_grads(grads)
        if not math.isfinite(norm):
            raise NonFiniteGradient(
                f"non-finite gradient norm {norm} at epoch {epoch} step {state.step}")
        lr = lr_at(state.step + 1, total_steps, cfg)
        adam_step(model.named_params(), grads, state, lr)
        if bad := model.non_finite_param():
            raise NumericalError(f"non-finite parameter {bad} after epoch {epoch} "
                                 f"step {state.step - 1} (lr={lr:.3e})")
        t4 = clock()
        for name, seconds in zip(PHASES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            phases[name] = phases.get(name, 0.0) + seconds
        if log.isEnabledFor(logging.DEBUG):
            log.debug(json.dumps({"epoch": epoch, "event": "step", "grad_norm": norm,
                                  "loss": value, "lr": lr, "step": state.step}))
        losses.append(value)
        max_norm = max(max_norm, norm)
        preds.append(head_ops.predict(logits, labels.task))
        targets.append(target)
    preds = np.concatenate(preds)
    targets = np.concatenate(targets)
    return float(np.mean(losses)), micro_f1(preds, targets, labels.task), max_norm


@dataclass
class FitResult:
    history: list
    best_val: float
    epochs_run: int


def peak_rss_mb():
    """Peak resident memory of this process so far, in MB (2**20 bytes).
    `ru_maxrss` counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 1024)


def fit(model, graph, labels, splits, cfg: TrainConfig, state=None,
        start_epoch=0, checkpoint_path=None, eval_fn=None, log_fn=None,
        best_val=-1.0, bad_epochs=0):
    """Train for cfg.epochs epochs, stopping early after PATIENCE epochs
    without a better validation micro-F1 (when a val split and eval_fn are
    provided).

    Each history record holds the epoch, its mean `loss`, `train_micro_f1`,
    the `lr` of its last step, its largest pre-clip `grad_norm`, the wall
    `seconds` of its `train_epoch` and the training `nodes_per_s` they give,
    the parts of those seconds spent in each step phase (`sample_seconds`,
    `forward_seconds`, `backward_seconds` and `optimizer_seconds`; see
    `train_epoch`), the wall seconds spent validating (`eval_seconds`) and
    writing the checkpoint (`checkpoint_seconds`), the process's peak
    resident memory so far (`peak_rss_mb`), plus `val_micro_f1` and
    `val_loss` when validated. `log_fn` sees each record after the epoch's
    checkpoint is written.
    """
    state = state or OptimizerState()
    steps_per_epoch = math.ceil(len(splits.train) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    history = []
    epoch = start_epoch
    for epoch in range(start_epoch, cfg.epochs):
        phases = {}
        start = time.perf_counter()
        mean_loss, train_f1, grad_norm = train_epoch(model, graph, labels, splits.train,
                                                     cfg, epoch, state, total_steps, phases)
        seconds = time.perf_counter() - start
        record = {"epoch": epoch, "loss": mean_loss, "train_micro_f1": train_f1,
                  "lr": lr_at(state.step, total_steps, cfg), "grad_norm": grad_norm,
                  "seconds": seconds, "nodes_per_s": len(splits.train) / seconds,
                  **{f"{name}_seconds": phases[name] for name in PHASES}}
        start = time.perf_counter()
        if eval_fn is not None and len(splits.val):
            val_f1, val_loss = eval_fn(model, epoch)
            record.update({"val_micro_f1": val_f1, "val_loss": val_loss})
            if val_f1 > best_val:
                best_val, bad_epochs = val_f1, 0
            else:
                bad_epochs += 1
        record["eval_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        if checkpoint_path:
            save_model_checkpoint(checkpoint_path, model, state, cfg,
                                  next_epoch=epoch + 1, best_val=best_val,
                                  bad_epochs=bad_epochs)
        record["checkpoint_seconds"] = time.perf_counter() - start
        record["peak_rss_mb"] = peak_rss_mb()
        history.append(record)
        if log_fn:
            log_fn(record)
        if eval_fn is not None and bad_epochs >= PATIENCE:
            break
    return FitResult(history=history, best_val=best_val, epochs_run=len(history))


# ---------------------------------------------------------------------------
# checkpoint glue
# ---------------------------------------------------------------------------

def save_model_checkpoint(path, model, state, cfg, next_epoch, best_val=-1.0,
                          bad_epochs=0):
    """Write the run's state; a model `cfg` does not describe raises InvalidSetting first."""
    _run_model_config(model.config, cfg)
    blocks = {}
    for name, p in model.named_params():
        blocks[f"param:{name}"] = p.data
    for name, m in state.m.items():
        blocks[f"adam.m:{name}"] = m
        blocks[f"adam.v:{name}"] = state.v[name]
    meta = {
        "model": asdict(model.config),
        "train": asdict(cfg),
        "adam": {"step": state.step},
        "next_epoch": next_epoch,
        "best_val": best_val,
        "bad_epochs": bad_epochs,
    }
    save_checkpoint(path, meta, blocks)


def load_model_checkpoint(path):
    """-> (model, optimizer state, TrainConfig, extras dict).

    A file that passes its checksum but lacks a block or a state key,
    carries an unknown config key or a config value that does not convert,
    has a model block that is not the model its train settings describe,
    holds a parameter or Adam moment of the wrong shape, a moment without
    its partner, or a block that names no parameter raises
    IncompleteCheckpoint. Restoring draws no random numbers.
    """
    meta, blocks = load_checkpoint(path)
    try:
        return _restore(meta, blocks)
    except KeyError as exc:
        raise IncompleteCheckpoint(f"{path}: missing {exc.args[0]!r}") from None
    except (TypeError, ValueError, ShapeMismatch) as exc:  # a bad config key or value or shape
        raise IncompleteCheckpoint(f"{path}: {exc}") from None


def _restore(meta, blocks):
    cfg = TrainConfig(**meta["train"])
    mc = _run_model_config(ModelConfig(**meta["model"]), cfg)
    # load_checkpoint gives each block its own array
    model = PathSageModel.build(mc, lambda name, shape: blocks.pop(f"param:{name}"))
    state = OptimizerState(step=meta["adam"]["step"])
    for name, p in model.named_params():
        keys = (f"adam.m:{name}", f"adam.v:{name}")
        if keys[0] not in blocks and keys[1] not in blocks:
            continue
        for key, moments in zip(keys, (state.m, state.v)):
            moments[name] = blocks.pop(key)  # KeyError: the moment has no partner
            if moments[name].shape != p.shape:
                raise ShapeMismatch(f"block {key!r}", moments[name].shape, p.shape)
    if blocks:
        raise ValueError(f"block {min(blocks)!r} names no parameter")
    extras = {"next_epoch": meta["next_epoch"], "best_val": meta["best_val"],
              "bad_epochs": meta["bad_epochs"]}
    return model, state, cfg, extras
