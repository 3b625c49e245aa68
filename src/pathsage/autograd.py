"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays (row-major, float32 by default,
float64 supported for gradient-check oracles). Primitives compute in their
inputs' dtype. The exceptions work in 64-bit and round once: the row
statistics of `layer_norm`, the column sums of `canonical_bucket_mean`, and
the losses, which take 64-bit copies of the (B, K) logits. A product with
a shared 2-D weight is one 2-D GEMM each way, and a bias given to `matmul`
is added in place into its output. Softmax reduces over its short last
axis (the 2-9 keys of an attention row) one column at a time rather than
through numpy's per-row reduce. Each primitive records a vector-Jacobian
product closure whenever an input requires gradients; a vjp returns None
for an input that requires none, and skips its math.

The recorded graph holds no forward data. An op output that records gets a
`_Node`: its vjp closure and its parents, where a parent is that input's
own node, the input itself if it is a leaf that requires gradients, or None
if it requires none. A closure keeps only the arrays, shapes and flags its
vjp reads, never a `Tensor`. So an array that no vjp reads (a GEMM output
before its head transpose, a sum, a dropout output) is freed as soon as the
forward code drops its tensor, and the tape of a step holds only the
vjps' operands. `backward` walks the graph once in reverse topological
order, accumulates gradients into the leaves, and releases each node's
closure and parents right after its vjp runs. Inside a `no_record()` block
(inference) no op records anything; `is_recording()` tells which state is
on.

A 2-D GEMM with fewer than `GEMM_MIN_ROWS` rows runs on a zero-padded copy
of that many rows (`gemm`). BLAS gives a row different bits when M is small
(the gemv path at M = 1, other kernels below 16 rows at K = 512 and 1024),
so for the model's tested shapes a row's bits do not depend on how many
rows share its GEMM (README states the limits).

An op outside this module is built the same way, on `_make`: the encoder's
fused attention (`encoder._attention`) uses `gemm`, `softmax_rows_` and
`softmax_vjp`. Since that op took over the attention math, no code in the
package calls `scale`, `softmax`, `transpose` or `select`. They stay because
the benchmark's op tracer (`perfbench/tracer.py`, `AUTOGRAD_OPS`) binds
every one of them by name; the tests' primitive reference layer
(`tests/helpers.py::reference_layer`) also composes them.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import InvalidSetting, NonScalarLoss, ShapeMismatch

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-5  # added to the variance before the square root
GEMM_MIN_ROWS = 16  # smallest M a 2-D matmul forward hands to BLAS

# False inside a no_record() block. A module global is enough: the runtime
# is single-threaded.
_recording = True


class _Node:
    """One recorded op: its vjp closure, callable(grad_out) -> one gradient
    (or None) per parent, and its parents, each a `_Node`, a leaf `Tensor`
    that requires gradients, or None. Both are cleared by `backward`."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None  # the _Node of a recorded op output

    @property
    def _parents(self):
        return None if self._node is None else self._node.parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

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


def is_recording():
    """False inside a no_record() block, True otherwise."""
    return _recording


def _make(data, parents, vjp):
    """Build an op output, recording the vjp only if some parent needs grads
    and recording is on. The node refers to each parent's node, not to the
    parent tensor, so the graph does not keep a parent's data alive."""
    out = Tensor(data, dtype=data.dtype)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple([p._node or (p if p.requires_grad else None)
                                 for p in parents]), vjp)
    return out


def _unbroadcast_trailing(g, shape):
    """Sum gradient over the leading axes that were broadcast away."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _column_sum(a, b=None):
    """Sum of a (or of a * b) over every axis but the last -> (width,).

    `einsum` adds the rows in order, 2-3x faster than numpy's reduce. For a
    width above 1 the reduce adds them in the same order, so the sums are
    bit-identical to `a.sum(axis=lead)`; a single column numpy sums pairwise.
    """
    a2 = a.reshape(-1, a.shape[-1])
    if b is None:
        return np.einsum("ij->j", a2)
    return np.einsum("ij,ij->j", a2, b.reshape(a2.shape))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    """Elementwise add; b may have a trailing-suffix shape (bias broadcast).
    An operand that requires no gradient gets None from the vjp."""
    a, b = _as_tensor(a), _as_tensor(b)
    if len(b.shape) > len(a.shape) or a.shape[len(a.shape) - len(b.shape):] != b.shape:
        raise ShapeMismatch("add operands incompatible", a.shape, b.shape)
    data = a.data + b.data
    need_a, need_b, b_shape = a.requires_grad, b.requires_grad, b.shape

    def vjp(g):
        return (g if need_a else None,
                _unbroadcast_trailing(g, b_shape) if need_b else None)

    return _make(data, (a, b), vjp)


def gemm(a2, b):
    """`a2 @ b` for 2-D operands. An a2 of fewer than `GEMM_MIN_ROWS` rows
    is multiplied as a zero-padded copy of that many rows, so a row's bits
    do not depend on how many rows share the GEMM."""
    m = a2.shape[0]
    if m >= GEMM_MIN_ROWS:
        return a2 @ b
    padded = np.zeros((GEMM_MIN_ROWS, a2.shape[1]), dtype=a2.dtype)
    padded[:m] = a2
    return (padded @ b)[:m]


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)
    return _make(a.data * np.asarray(s, dtype=a.dtype), (a,), lambda g: (g * s,))


def matmul(a, b, bias=None):
    """Matrix product over a's leading batch dims, plus an optional bias row.
    b is a 2-D matrix (such as a weight) shared across the batch, or carries
    exactly a's batch dims.

    A 2-D b makes one 2-D GEMM each way: a is viewed as (M, d) rows, the
    forward is `a2 @ b` and the vjp is `g2 @ b.T` and `a2.T @ g2`, so b's
    gradient sums over all M rows inside that one GEMM. An M below
    `GEMM_MIN_ROWS` is zero-padded up to it in the forward, so a row's bits
    do not depend on M; the vjp is unpadded. A `bias` of b's
    width (2-D b only) is added in place into the GEMM output; its gradient
    is the column sum of `g2`. A batched b makes one matmul per batch entry
    each way, and its gradient has b's shape. An operand that requires no
    gradient gets None from the vjp, and its GEMM is skipped.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if min(a.data.ndim, b.data.ndim) < 2 or b.shape[:-2] not in ((), a.shape[:-2]):
        raise ShapeMismatch("matmul needs a 2-D b or one with a's batch dims", a.shape, b.shape)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch("matmul inner dims differ", a.shape, b.shape)
    parents = (a, b)
    need_a, need_b = a.requires_grad, b.requires_grad
    if bias is not None:
        bias = _as_tensor(bias)
        if b.data.ndim != 2 or bias.shape != b.shape[-1:]:
            raise ShapeMismatch("matmul bias needs a 2-D b of the bias's width",
                                b.shape, bias.shape)
        parents = (a, b, bias)
    if b.data.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        out2 = gemm(a2, b.data)
        if bias is not None:
            out2 += bias.data
        data = out2.reshape(*a.shape[:-1], b.shape[-1])
        # each operand is kept only for the other operand's gradient
        a2, b_data = a2 if need_b else None, b.data if need_a else None
        biased = bias is not None
        need_bias = biased and bias.requires_grad

        def vjp(g):
            g2 = g.reshape(-1, g.shape[-1])
            grads = ((g2 @ b_data.T).reshape(*g.shape[:-1], -1) if need_a else None,
                     a2.T @ g2 if need_b else None)
            if not biased:
                return grads
            return grads + (_column_sum(g2) if need_bias else None,)
    else:
        data = np.matmul(a.data, b.data)
        a_data, b_data = a.data if need_b else None, b.data if need_a else None

        def vjp(g):
            return (np.matmul(g, np.swapaxes(b_data, -1, -2)) if need_a else None,
                    np.matmul(np.swapaxes(a_data, -1, -2), g) if need_b else None)

    return _make(data, parents, vjp)


def relu(a):
    """max(a, 0); the vjp passes g where the output is positive, so the
    gradient at 0 is 0."""
    a = _as_tensor(a)
    data = np.maximum(a.data, 0)

    def vjp(g):
        return (g * (data > 0),)

    return _make(data, (a,), vjp)


def _fold_columns(ufunc, x):
    """ufunc folded over x's last axis one column at a time, into one
    (..., 1) accumulator, in column order.

    numpy's reduce over a short last axis costs about 100 ns per row; this
    costs one vectorised call per column. It is the faster of the two up to
    about 32 columns (about 1.3x slower at 65); attention rows here have
    2-9 keys.
    """
    acc = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        ufunc(acc, x[..., j:j + 1], out=acc)
    return acc


def softmax(a):
    """Numerically stable softmax over the last axis.

    The row max, the row sum and the vjp's row dot are folded one column at
    a time (`_fold_columns`). The sum adds in column order, which is what
    numpy's reduce does for rows shorter than 8, so for those the result is
    bit-identical to `e / e.sum(-1)`.
    """
    a = _as_tensor(a)
    s = a.data.copy()
    softmax_rows_(s)
    return _make(s, (a,), lambda g: (softmax_vjp(g, s),))


def softmax_rows_(s):
    """`softmax` of an array's last axis, in place."""
    s -= _fold_columns(np.maximum, s)
    np.exp(s, out=s)
    s /= _fold_columns(np.add, s)


def softmax_vjp(g, s):
    """The input gradient of a softmax whose output is s, for output
    gradient g."""
    gx = g - _fold_columns(np.add, g * s)
    gx *= s
    return gx


def _row_mean64(a, b=None):
    """Row mean over the last axis of a (or of a * b), summed by a 64-bit
    `einsum` without a 64-bit copy of the operands -> float64 (..., 1)."""
    if b is None:
        total = np.einsum("...i->...", a, dtype=np.float64)
    else:
        total = np.einsum("...i,...i->...", a, b, dtype=np.float64)
    return total[..., None] / a.shape[-1]


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then apply learnable gain and bias.

    The elementwise math runs in the input dtype: the input is centred into
    a new buffer that is then normalised, scaled and shifted in place. Each
    row mean and variance (and the two row means of the vjp) is summed by
    `_row_mean64` and rounded once to the input dtype.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeMismatch("layer_norm gain/bias width", x.shape, gain.shape)
    dt = x.dtype
    xhat = x.data - _row_mean64(x.data).astype(dt)
    inv = (1.0 / np.sqrt(_row_mean64(xhat, xhat) + LAYER_NORM_EPS)).astype(dt)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data
    need_gain, need_bias, gain_data = gain.requires_grad, bias.requires_grad, gain.data

    def vjp(g):
        ggain = _column_sum(g, xhat) if need_gain else None
        gbias = _column_sum(g) if need_bias else None
        gx = g * gain_data
        m1 = _row_mean64(gx).astype(dt)
        m2 = _row_mean64(gx, xhat).astype(dt)
        gx -= m1
        gx -= xhat * m2
        gx *= inv
        return gx, ggain, gbias

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
    shape = x.shape

    def vjp(g):
        gx = np.zeros(shape, dtype=g.dtype)
        sl = [slice(None)] * len(shape)
        sl[axis] = index
        gx[tuple(sl)] = g
        return (gx,)

    return _make(data, (x,), vjp)


def take_rows(x, index):
    """Rows of x gathered along axis 0 by an int array `index` of any shape
    -> index.shape + x.shape[1:]. The vjp scatters each row's gradient into
    zeros of x's shape, and adds up the rows an index repeats."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    shape = x.shape
    repeats = (_recording and x.requires_grad and index.size > 0
               and np.bincount(index.reshape(-1), minlength=shape[0]).max() > 1)

    def vjp(g):
        gx = np.zeros(shape, dtype=g.dtype)
        if repeats:
            np.add.at(gx, index, g)
        else:
            gx[index] = g
        return (gx,)

    return _make(x.data[index], (x,), vjp)


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
    dt = logits.dtype

    def vjp(g):
        gz = p.copy()
        gz[np.arange(b), t] -= 1.0
        return ((np.float64(g.reshape(())) / b * gz).astype(dt),)

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
    dt = logits.dtype

    def vjp(g):
        return ((np.float64(g.reshape(())) / n * (sig - y)).astype(dt),)

    return _make(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Gradients accumulate additively across multiple uses of a tensor and
    across repeated backward calls. Each recorded node is released as soon
    as its vjp has run: its closure, and with it the arrays it kept, and
    its parents are dropped, so the tape shrinks while backward walks it,
    and afterwards `loss` and every op output of its graph record nothing.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise NonScalarLoss(f"backward needs a scalar loss, got shape {getattr(loss, 'shape', None)}")
    if not loss.requires_grad:
        return
    root = loss._node or loss

    topo, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if type(node) is _Node and node.parents:
            for p in node.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))

    # Keyed by id(): each key is a node or leaf that is still in `topo` (a
    # parent sits before every child there, and nodes are popped from the
    # end), so no key's object can be freed and its id reused meanwhile.
    grads = {id(root): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if type(node) is not _Node:  # a leaf tensor
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        if g is not None and node.vjp is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                if parent is None or pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        node.parents = node.vjp = None
