"""The classification head, its losses and predictions.

The concatenated per-length path summaries are fused by a two-layer relu
feed-forward that maps straight to class logits. Activations (softmax /
sigmoid) live only inside loss and prediction; logits stay raw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @staticmethod
    def init(rng, depth_s, hidden, num_classes, dtype=np.float32):
        def affine(fan_in, fan_out):
            bound = 1.0 / math.sqrt(fan_in)
            w = Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)).astype(dtype),
                       requires_grad=True)
            b = Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True)
            return w, b

        w1, b1 = affine(depth_s * hidden, hidden)
        w2, b2 = affine(hidden, num_classes)
        return HeadParams(w1, b1, w2, b2)

    def named_params(self):
        yield "head.w1", self.w1
        yield "head.b1", self.b1
        yield "head.w2", self.w2
        yield "head.b2", self.b2


def head_forward(params: HeadParams, concat_vector, train=False, rng=None,
                 dropout_rate=0.0):
    """logits = relu(C W1 + b1) W2 + b2, with dropout on the hidden relu
    activations during training. Accepts a [s*d] vector or a (B, s*d) batch."""
    c = concat_vector if isinstance(concat_vector, Tensor) else Tensor(concat_vector)
    squeeze = c.data.ndim == 1
    if squeeze:
        c = ag.reshape(c, (1, -1))
    if c.shape[1] != params.w1.shape[0]:
        raise WidthMismatch("head input width", c.shape, params.w1.shape)
    h = ag.relu(ag.add(ag.matmul(c, params.w1), params.b1))
    h = ag.dropout(h, dropout_rate, train, rng)
    logits = ag.add(ag.matmul(h, params.w2), params.b2)
    return ag.select(logits, axis=0, index=0) if squeeze else logits


def loss(logits, target, task):
    """Scalar training loss for one sample or a batch.

    single_label: cross-entropy via log-sum-exp; multi_label: mean binary
    cross-entropy with logits over classes. Stable for |logit| up to ~30.
    """
    t = logits if isinstance(logits, Tensor) else Tensor(logits)
    batched = t.data.ndim == 2
    if task == SINGLE_LABEL:
        targets = np.atleast_1d(np.asarray(target, dtype=np.int64))
        k = t.shape[-1]
        if targets.min() < 0 or targets.max() >= k:
            raise InvalidTarget(f"class id outside [0,{k})")
        if not batched:
            t = ag.reshape(t, (1, -1))
        if targets.shape != (t.shape[0],):
            raise InvalidTarget(f"{targets.shape[0]} targets for {t.shape[0]} samples")
        return ag.softmax_cross_entropy(t, targets)
    if task == MULTI_LABEL:
        y = np.asarray(target, dtype=np.float64)
        if y.shape != t.shape:
            raise InvalidTarget(f"target shape {y.shape} != logits shape {t.shape}")
        if ((y != 0) & (y != 1)).any():
            raise InvalidTarget("multi_label targets must be 0/1")
        return ag.bce_with_logits(t, y)
    raise InvalidTarget(f"unknown task {task!r}")


def sample_losses(logits, target, task):
    """Per-sample float64 losses for a batch of logits with valid targets:
    the cross-entropy of each row (single_label) or the binary
    cross-entropy averaged over classes (multi_label)."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    z = z.astype(np.float64)
    if task == SINGLE_LABEL:
        return ag.cross_entropy_rows(z, np.asarray(target, dtype=np.int64))[1]
    return ag.bce_elements(z, np.asarray(target, dtype=np.float64)).mean(axis=-1)


def predict(logits, task):
    """single_label: argmax (smallest index wins ties); multi_label:
    sigmoid(logit) >= 0.5 per class, i.e. logit >= 0."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if task == SINGLE_LABEL:
        return np.argmax(z, axis=-1)  # np.argmax takes the first maximum
    if task == MULTI_LABEL:
        return (z >= 0.0).astype(np.uint8)
    raise InvalidTarget(f"unknown task {task!r}")
