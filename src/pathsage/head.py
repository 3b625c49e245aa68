"""The classification head, its losses and predictions.

The concatenated per-length path summaries are fused by a two-layer relu
feed-forward that maps straight to class logits. Activations (softmax /
sigmoid) live only inside loss and prediction; logits stay raw. The head's
four tensors are made, with the encoder's, by `model.PathSageModel.build`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import InvalidTarget, WidthMismatch
from .graph import MULTI_LABEL, SINGLE_LABEL


@dataclass
class HeadParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named_params(self):
        for f in fields(self):
            yield f"head.{f.name}", getattr(self, f.name)


def head_forward(params: HeadParams, concat, rng=None, dropout_rate=0.0):
    """logits = relu(C W1 + b1) W2 + b2 for a (B, s*d) Tensor C, with dropout
    on the hidden relu activations when a dropout stream `rng` is given."""
    if concat.data.ndim != 2 or concat.shape[1] != params.w1.shape[0]:
        raise WidthMismatch("head input width", concat.shape, params.w1.shape)
    h = ag.relu(ag.add(ag.matmul(concat, params.w1), params.b1))
    h = ag.dropout(h, dropout_rate, rng)
    return ag.add(ag.matmul(h, params.w2), params.b2)


def loss(logits, target, task):
    """Scalar training loss for a (B, K) Tensor of logits.

    single_label: mean cross-entropy via log-sum-exp against (B,) class ids;
    multi_label: mean binary cross-entropy with logits against (B, K) 0/1
    targets. Stable for |logit| up to ~30.
    """
    if task == SINGLE_LABEL:
        targets = np.asarray(target, dtype=np.int64)
        if logits.data.ndim != 2 or targets.shape != logits.shape[:1]:
            raise InvalidTarget(f"targets of shape {targets.shape} for logits {logits.shape}")
        k = logits.shape[-1]
        if targets.min() < 0 or targets.max() >= k:
            raise InvalidTarget(f"class id outside [0,{k})")
        return ag.softmax_cross_entropy(logits, targets)
    if task == MULTI_LABEL:
        y = np.asarray(target, dtype=np.float64)
        if y.shape != logits.shape:
            raise InvalidTarget(f"target shape {y.shape} != logits shape {logits.shape}")
        if ((y != 0) & (y != 1)).any():
            raise InvalidTarget("multi_label targets must be 0/1")
        return ag.bce_with_logits(logits, y)
    raise InvalidTarget(f"unknown task {task!r}")


def sample_losses(logits, target, task):
    """Per-sample float64 losses for a batch of logits with valid targets:
    the cross-entropy of each row (single_label) or the binary
    cross-entropy averaged over classes (multi_label)."""
    z = logits.data.astype(np.float64)
    if task == SINGLE_LABEL:
        return ag.cross_entropy_rows(z, np.asarray(target, dtype=np.int64))[1]
    return ag.bce_elements(z, np.asarray(target, dtype=np.float64)).mean(axis=-1)


def predict(logits, task):
    """single_label: argmax (smallest index wins ties); multi_label:
    sigmoid(logit) >= 0.5 per class, i.e. logit >= 0."""
    z = logits.data
    if task == SINGLE_LABEL:
        return np.argmax(z, axis=-1)  # np.argmax takes the first maximum
    if task == MULTI_LABEL:
        return (z >= 0.0).astype(np.uint8)
    raise InvalidTarget(f"unknown task {task!r}")
