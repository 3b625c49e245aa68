"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays (row-major, float32 by default,
float64 supported for gradient-check oracles). Primitives compute in their
inputs' dtype. The exceptions work in 64-bit and round once: the row
statistics of `layer_norm`, the column sums of `canonical_bucket_mean`, and
the losses, which take 64-bit copies of the (B, K) logits. A product with
a shared 2-D weight is one 2-D GEMM each way. Each primitive records a
vector-Jacobian product closure on the output tensor whenever an input
requires gradients; `backward` walks the recorded graph once in reverse
topological order and accumulates gradients into the leaves. Inside a
`no_record()` block (inference) no op records anything, so the graph of
one forward pass is not kept alive by its outputs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import InvalidSetting, NonScalarLoss, ShapeMismatch

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-5  # added to the variance before the square root

# False inside a no_record() block. A module global is enough: the runtime
# is single-threaded.
_recording = True


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = None   # tuple[Tensor, ...] when produced by a primitive
        self._vjp = None       # callable(grad_out) -> tuple of parent grads

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def no_record():
    """Within the block, op outputs record no parents or vjp and require no
    grad, whatever their inputs. The previous state returns on exit, also
    when the block raises."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _make(data, parents, vjp):
    """Build an op output, recording the vjp only if some parent needs grads
    and recording is on."""
    out = Tensor(data, dtype=data.dtype)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast_trailing(g, shape):
    """Sum gradient over the leading axes that were broadcast away."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    """Elementwise add; b may have a trailing-suffix shape (bias broadcast)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if len(b.shape) > len(a.shape) or a.shape[len(a.shape) - len(b.shape):] != b.shape:
        raise ShapeMismatch("add operands incompatible", a.shape, b.shape)
    data = a.data + b.data

    def vjp(g):
        return g, _unbroadcast_trailing(g, b.shape)

    return _make(data, (a, b), vjp)


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)
    return _make(a.data * np.asarray(s, dtype=a.dtype), (a,), lambda g: (g * s,))


def matmul(a, b):
    """Matrix product over a's leading batch dims. b is a 2-D matrix (such as
    a weight) shared across the batch, or carries exactly a's batch dims.

    A 2-D b makes one 2-D GEMM each way: a is viewed as (M, d) rows, the
    forward is `a2 @ b` and the vjp is `g2 @ b.T` and `a2.T @ g2`, so b's
    gradient sums over all M rows inside that one GEMM. A batched b makes
    one matmul per batch entry each way, and its gradient has b's shape.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if min(a.data.ndim, b.data.ndim) < 2 or b.shape[:-2] not in ((), a.shape[:-2]):
        raise ShapeMismatch("matmul needs a 2-D b or one with a's batch dims", a.shape, b.shape)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch("matmul inner dims differ", a.shape, b.shape)
    if b.data.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(*a.shape[:-1], b.shape[-1])

        def vjp(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2
    else:
        data = np.matmul(a.data, b.data)

        def vjp(g):
            return (np.matmul(g, np.swapaxes(b.data, -1, -2)),
                    np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(data, (a, b), vjp)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), vjp)


def softmax(a):
    """Numerically stable softmax over the last axis."""
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _make(s, (a,), vjp)


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then apply learnable gain and bias.

    The elementwise math runs in the input dtype. Each row mean and variance
    (and the two row means of the vjp) is summed in a 64-bit accumulator and
    rounded once to the input dtype; no 64-bit copy of the activation is made.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeMismatch("layer_norm gain/bias width", x.shape, gain.shape)
    dt = x.dtype
    xc = x.data - x.data.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
    var = (xc * xc).mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + LAYER_NORM_EPS)).astype(dt)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        gh = g * gain.data
        m1 = gh.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
        return inv * (gh - m1 - xhat * m2), ggain, gbias

    return _make(data, (x, gain, bias), vjp)


def dropout(x, rate, rng):
    """Inverted dropout: kept activations are scaled by 1/(1-rate).

    The mask, of x's shape, is drawn from the dropout stream `rng`. Returns
    `x` itself when there is no stream (inference) or rate is 0.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise InvalidSetting(f"dropout rate {rate} outside [0, 1)")
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)

    def vjp(g):
        return (g * keep,)

    return _make(x.data * keep, (x,), vjp)


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), vjp)


def select(x, axis, index):
    """Pick a single slice along `axis`, dropping that axis."""
    x = _as_tensor(x)
    data = np.take(x.data, index, axis=axis)

    def vjp(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        sl = [slice(None)] * x.data.ndim
        sl[axis] = index
        gx[tuple(sl)] = g
        return (gx,)

    return _make(data, (x,), vjp)


def reshape(x, shape):
    x = _as_tensor(x)
    old = x.shape
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return _make(data, (x,), vjp)


def transpose(x, axes):
    x = _as_tensor(x)
    inv = np.argsort(axes)
    data = np.ascontiguousarray(x.data.transpose(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return _make(data, (x,), vjp)


def canonical_bucket_mean(x):
    """Mean over axis -2 with each column summed in ascending value order.

    Input (..., n, d) -> output (..., d). Each column is sorted in 64-bit
    before the summation; a column's sorted values do not depend on the
    order of the rows, so the result is bit-identical under any permutation
    of the rows. The gradient of a mean is permutation-free, so the vjp is
    a plain uniform spread.
    """
    x = _as_tensor(x)
    if x.data.ndim < 2 or x.shape[-2] == 0:
        raise ShapeMismatch("canonical_bucket_mean needs >=2-D input with rows", x.shape)
    n = x.shape[-2]
    total = np.sort(x.data.astype(np.float64), axis=-2).sum(axis=-2)
    data = (total / n).astype(x.dtype)

    def vjp(g):
        return (np.repeat(np.expand_dims(g / n, -2), n, axis=-2),)

    return _make(data, (x,), vjp)


def cross_entropy_rows(z, targets):
    """Per-row log-sum-exp and cross-entropy of float64 logits z (B, K)
    against integer targets (B,) -> (lse, losses), both (B,)."""
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    return lse, lse - z[np.arange(z.shape[0]), targets]


def bce_elements(z, y):
    """Elementwise binary cross-entropy of sigmoid(z) against 0/1 targets y,
    for float64 arrays of one shape (stable log1p/exp formulation)."""
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def softmax_cross_entropy(logits, targets):
    """Mean cross-entropy between softmax(logits) rows and integer targets.

    logits: (B, K); targets: (B,) ints. Log-sum-exp computed in 64-bit.
    """
    logits = _as_tensor(logits)
    t = np.asarray(targets, dtype=np.int64)
    z = logits.data.astype(np.float64)
    lse, per = cross_entropy_rows(z, t)
    b = z.shape[0]
    data = np.asarray(per.mean(), dtype=logits.dtype)
    p = np.exp(z - lse[:, None])

    def vjp(g):
        gz = p.copy()
        gz[np.arange(b), t] -= 1.0
        return ((np.float64(g.reshape(())) / b * gz).astype(logits.dtype),)

    return _make(data, (logits,), vjp)


def bce_with_logits(logits, targets):
    """Mean elementwise binary cross-entropy of sigmoid(logits) vs targets.

    Mean of `bce_elements` over every element.
    """
    logits = _as_tensor(logits)
    y = np.asarray(targets, dtype=np.float64)
    z = logits.data.astype(np.float64)
    per = bce_elements(z, y)
    n = z.size
    data = np.asarray(per.mean(), dtype=logits.dtype)
    sig = 1.0 / (1.0 + np.exp(-z))

    def vjp(g):
        return ((np.float64(g.reshape(())) / n * (sig - y)).astype(logits.dtype),)

    return _make(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Gradients accumulate additively across multiple uses of a tensor and
    across repeated backward calls. The recorded graph is released afterward.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise NonScalarLoss(f"backward needs a scalar loss, got shape {getattr(loss, 'shape', None)}")

    topo, visited = [], set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._parents:
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    for node in topo:
        node._parents = None
        node._vjp = None
