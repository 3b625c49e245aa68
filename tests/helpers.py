"""Shared test utilities: finite-difference gradient checking, the ops
the package itself does not need (the reducers that turn an op's output
into a scalar loss, and `bmm`, a batched product), `tape_bytes`, the
memory a recorded graph keeps alive, `recorded_ops`, the op behind each
recorded node, and `reference_layer`, an encoder layer composed of
autograd primitives."""

import math

import numpy as np

from pathsage import autograd as ag
from pathsage.errors import ShapeMismatch


def tsum(x):
    """Sum of all elements, as a scalar tensor (64-bit accumulation)."""
    x = ag._as_tensor(x)
    data = np.asarray(x.data.astype(np.float64).sum(), dtype=x.dtype)
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        return (np.broadcast_to(g, shape).astype(dtype),)

    return ag._make(data, (x,), vjp)


def mul(a, b):
    """Elementwise product of two equal-shape tensors."""
    a, b = ag._as_tensor(a), ag._as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatch("mul operands incompatible", a.shape, b.shape)
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g * b_data, g * a_data

    return ag._make(a_data * b_data, (a, b), vjp)


def bmm(a, b):
    """Batched matrix product of two tensors with the same leading dims:
    (..., M, K) @ (..., K, N) -> (..., M, N)."""
    a, b = ag._as_tensor(a), ag._as_tensor(b)
    if a.data.ndim < 3 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch("bmm operands incompatible", a.shape, b.shape)
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.swapaxes(-1, -2), a_data.swapaxes(-1, -2) @ g

    return ag._make(a_data @ b_data, (a, b), vjp)


def closure_values(fn):
    """The values a function's closure cells hold (empty cells skipped)."""
    values = []
    for cell in fn.__closure__ or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:
            pass
    return values


def tape_bytes(t):
    """Bytes of the distinct array buffers that t's recorded graph reaches.

    The walk starts at t's graph node, not at t's own data. It follows
    graph nodes (their parents and vjp), tensors (their data and node),
    functions (their closure cells, so a wrapped vjp is seen through)
    and tuples and lists. A view counts as the buffer at the end of its
    `.base` chain, each buffer once.
    """
    seen, buffers = set(), {}
    stack = [t._node]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, ag.Tensor):
            stack += [obj.data, obj._node]
        elif isinstance(obj, ag._Node):
            stack += [obj.parents, obj.vjp]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif callable(obj) and hasattr(obj, "__closure__"):
            stack += closure_values(obj)
    return sum(buffers.values())


def recorded_ops(t):
    """The op name of every node in t's recorded graph, one entry per node:
    the function whose vjp the node holds (`matmul` for
    `matmul.<locals>.vjp`)."""
    ops, seen, stack = [], set(), [t._node]
    while stack:
        node = stack.pop()
        if not isinstance(node, ag._Node) or id(node) in seen:
            continue
        seen.add(id(node))
        ops.append(node.vjp.__qualname__.split(".")[0])
        stack += node.parents
    return ops


def fd_grad(fn, arr, step=1e-6):
    """Central finite difference of scalar fn at arr (64-bit)."""
    arr = np.asarray(arr, dtype=np.float64)
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(arr)
        flat[i] = orig - step
        lo = fn(arr)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def check_grad(build_loss, arrays, step=1e-6, rtol=1e-4, atol=1e-8):
    """Compare backward() grads against central differences.

    build_loss takes a list of float64 Tensors (requires_grad) and returns
    a scalar Tensor. Returns the max relative error observed.
    """
    tensors = [ag.Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    loss = build_loss(tensors)
    ag.backward(loss)
    worst = 0.0
    for idx, t in enumerate(tensors):
        def fn(x, idx=idx):
            probes = [ag.Tensor(np.asarray(a, dtype=np.float64)) for a in arrays]
            probes[idx] = ag.Tensor(x.copy())
            return build_loss(probes).item()

        numeric = fd_grad(fn, np.asarray(arrays[idx], dtype=np.float64), step=step)
        got = t.grad if t.grad is not None else np.zeros_like(numeric)
        denom = np.maximum(np.abs(numeric), np.abs(got))
        err = np.abs(got - numeric)
        rel = np.where(err <= atol, 0.0, err / np.maximum(denom, 1e-12))
        worst = max(worst, float(rel.max()))
        assert (rel <= rtol).all(), (
            f"tensor {idx}: max rel err {rel.max():.3e} (fd {numeric.reshape(-1)[:4]}, "
            f"ad {got.reshape(-1)[:4]})")
    return worst


def rel_err(a, b, atol=1e-10):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    err = np.abs(a - b)
    return np.where(err <= atol, 0.0, err / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12))


def _split_heads(x, heads):
    n, t, d = x.shape
    x = ag.reshape(x, (n, t, heads, d // heads))
    return ag.transpose(x, (0, 2, 1, 3))  # (N, h, T, dh)


def reference_layer(layer, x, heads, dropout_rate, rng, readout=False):
    """One post-norm encoder layer on equal-length paths x (N, T, d), one
    autograd primitive per step -> (output (N, R, d), attention (N, h, R, T)).

    The queries are all T tokens, or with `readout` position 0 alone. This
    is the layer as the encoder ran it before attention became one fused
    op; the fused layer is checked against it, values and gradients. Each
    weight product runs on the (N * R or N * T, d) rows, the scores and the
    context on `bmm`. Its two dropout masks take the same draws, in the
    same order, as the fused layer's.
    """
    n, t, d = x.shape
    r = 1 if readout else t
    tokens = ag.reshape(x, (n * t, d))
    rows = ag.select(x, 1, 0) if readout else tokens  # (N * R, d)
    q = _split_heads(ag.reshape(ag.matmul(rows, layer.wq, layer.bq), (n, r, d)), heads)
    k = ag.transpose(ag.reshape(ag.matmul(tokens, layer.wk), (n, t, heads, d // heads)),
                     (0, 2, 3, 1))
    v = _split_heads(ag.reshape(ag.matmul(tokens, layer.wv, layer.bv), (n, t, d)), heads)
    scores = ag.scale(bmm(q, k), 1.0 / math.sqrt(d // heads))
    attn = ag.softmax(scores)                       # (N, h, R, T)
    ctx = ag.reshape(ag.transpose(bmm(attn, v), (0, 2, 1, 3)), (n * r, d))
    out = ag.dropout(ag.matmul(ctx, layer.wo, layer.bo), dropout_rate, rng)
    x = ag.layer_norm(ag.add(rows, out), layer.ln1_g, layer.ln1_b)
    ff = ag.matmul(ag.relu(ag.matmul(x, layer.w1, layer.b1)), layer.w2, layer.b2)
    ff = ag.dropout(ff, dropout_rate, rng)
    x = ag.layer_norm(ag.add(x, ff), layer.ln2_g, layer.ln2_b)
    return ag.reshape(x, (n, r, d)), attn.data
