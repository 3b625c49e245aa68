"""Path encoder: feature projection, sinusoidal positions, transformer stack.

A sampled path [c, v_1, ..., v_l] becomes a token sequence whose position
index is each node's walk distance from the central node (the central node
itself sits at position 0). After m post-norm transformer layers the
position-0 output is the path representation.

Paths of several lengths are encoded in one pass, packed: `encode_paths`
takes the (P, F) features of every token, with one (T, U) segment per
length (U paths of T tokens, path by path). Each tokenwise op, from the
projections and the feed-forward block to layer norm and dropout, runs
once per layer over all P rows. A layer records four autograd ops: the
attention branch, layer norm, the feed-forward branch (`_feed_forward`)
and layer norm. Each branch op has a hand-derived vjp and applies its
dropout and residual add in place. Attention (`_attention`) runs each
segment's heads as strided views of one query and one key|value buffer.
Only the position-0 row leaves the encoder, so the last layer queries from
those rows alone (`_readout_attention`). With one query per path, the key
and value projections fold into the query and the context: scores are
each token against W_K applied to the query, and the context is W_V
applied to the attention-weighted sum of the tokens. So no token is
projected to a key or a value, and everything past that sum runs on one
row per path. `attention_maps` runs every layer on all T rows of
equal-length paths to report the full (T, T) maps. `layer_shapes` names
and shapes one layer's parameters; `model.PathSageModel.build` makes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import OddDimension, PathTooLong, ShapeMismatch


def build_position_table(max_len, d, dtype=np.float32):
    """Sinusoid table (max_len, d): entry (p, 2i) = sin(p / 10000^(2i/d)),
    entry (p, 2i+1) = cos(p / 10000^(2i/d)). Row 0 is [0,1,0,1,...]."""
    if d % 2 != 0:
        raise OddDimension(f"position dimension {d} must be even")
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    two_i = np.arange(0, d, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, two_i / d)
    table = np.empty((max_len, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table.astype(dtype)


def layer_shapes(d):
    """(name, shape) of each parameter of one encoder layer of width d, in
    `named_params` order."""
    return (("wq", (d, d)), ("bq", (d,)),
            ("wk", (d, d)),  # no key bias: softmax ignores the q.bk it adds to a score row
            ("wv", (d, d)), ("bv", (d,)), ("wo", (d, d)), ("bo", (d,)),
            ("w1", (d, 4 * d)), ("b1", (4 * d,)), ("w2", (4 * d, d)), ("b2", (d,)),
            ("ln1_g", (d,)), ("ln1_b", (d,)), ("ln2_g", (d,)), ("ln2_b", (d,)))


@dataclass
class EncoderParams:
    heads: int
    w_in: Tensor
    b_in: Tensor
    layers: list  # one SimpleNamespace per layer, an attribute per `layer_shapes` name

    def named_params(self):
        yield "encoder.w_in", self.w_in
        yield "encoder.b_in", self.b_in
        for k, layer in enumerate(self.layers):
            for name, tensor in vars(layer).items():
                yield f"encoder.layer{k}.{name}", tensor


def _spans(segments):
    """(T, U, token rows, paths) of each packed segment: U paths of T
    tokens, the slice of the packed token rows that holds them, and the
    slice of the path index (one row per path) that numbers them."""
    tok = path = 0
    for t, u in segments:
        yield t, u, slice(tok, tok + u * t), slice(path, path + u)
        tok += u * t
        path += u


def _heads(rows, u, t, heads):
    """A (u * t, d) block of rows, path by path, as a (u, heads, t, d/heads)
    view."""
    return rows.reshape(u, t, heads, -1).transpose(0, 2, 1, 3)


def _by_head(rows, heads):
    """(U, d) rows as a (heads, U, d/heads) view: head h's columns of every
    row."""
    return rows.reshape(len(rows), heads, rows.shape[1] // heads).transpose(1, 0, 2)


def _head_outer(a, b, heads):
    """For a (U, heads, d) and b (U, d) -> (d, d) whose head h columns are
    the sum over rows u of outer(a[u, h], head h of b[u]): the gradient of
    W_K from q~ and the queries, and of W_V from z and the context."""
    d = a.shape[2]
    return (a.transpose(1, 2, 0) @ _by_head(b, heads)).transpose(1, 0, 2).reshape(d, d)


def _attention(layer, x, segments, heads, dropout_rate=0.0, rng=None):
    """The attention branch of a layer over packed paths, every token a
    query, as one autograd op: x + dropout(attention(x)) -> (output Tensor
    (P, d), each segment's (U, h, T, T) attention array).

    x (P, d) holds the tokens of every segment, path by path. One GEMM
    makes the queries and one the keys and values of every token; each
    segment then runs its heads as strided views of those buffers and
    writes its context straight into one (P, d) buffer, which the output
    GEMM reads. Dropout, with a mask drawn from `rng`, and the residual are
    applied in place on the GEMM's output. The vjp loops over the segments
    the same way, sums each weight gradient in one GEMM and adds the
    residual gradient into x's. It keeps the weights by reference, the
    query, key|value, attention and context buffers and the bool dropout
    mask.
    """
    parents = (x, layer.wq, layer.bq, layer.wk, layer.wv, layer.bv, layer.wo, layer.bo)
    need = [p.requires_grad for p in parents]
    xd, wq, bq, wk, wv, bv, wo, bo = (p.data for p in parents)
    d = xd.shape[1]
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=xd.dtype)
    q = ag.gemm(xd, wq)
    q += bq
    kv = ag.gemm(xd, np.concatenate((wk, wv), axis=1))  # (P, 2d): keys | values
    kv[:, d:] += bv
    ctx = np.empty_like(q)
    spans = list(_spans(segments))
    attn = []
    for t, u, toks, _ in spans:
        kv5 = kv[toks].reshape(u, t, 2, heads, dh)
        s = np.matmul(_heads(q[toks], u, t, heads), kv5[:, :, 0].transpose(0, 2, 3, 1))
        s *= scale
        ag.softmax_rows_(s)
        np.matmul(s, kv5[:, :, 1].transpose(0, 2, 1, 3), out=_heads(ctx[toks], u, t, heads))
        attn.append(s)
    out = ag.gemm(ctx, wo)
    out += bo
    keep = ag.dropout_keep(out.shape, dropout_rate, rng)
    if keep is not None:
        ag.scale_kept(out, keep, dropout_rate, out=out)
    out += xd

    def vjp(g):
        gout = g if keep is None else ag.scale_kept(g, keep, dropout_rate)
        gctx = gout @ wo.T
        gq, gkv = np.empty_like(q), np.empty_like(kv)
        for (t, u, toks, _), s in zip(spans, attn):
            kv5 = kv[toks].reshape(u, t, 2, heads, dh)
            gkv5 = gkv[toks].reshape(u, t, 2, heads, dh)
            k, v = kv5[:, :, 0].transpose(0, 2, 1, 3), kv5[:, :, 1].transpose(0, 2, 1, 3)
            gc = _heads(gctx[toks], u, t, heads)
            gs = ag.softmax_vjp(np.matmul(gc, v.swapaxes(-1, -2)), s)
            gs *= scale
            np.matmul(s.swapaxes(-1, -2), gc, out=gkv5[:, :, 1].transpose(0, 2, 1, 3))
            np.matmul(gs, k, out=_heads(gq[toks], u, t, heads))
            np.matmul(gs.swapaxes(-1, -2), _heads(q[toks], u, t, heads),
                      out=gkv5[:, :, 0].transpose(0, 2, 1, 3))
        gx = None
        if need[0]:
            gx = gkv @ np.concatenate((wk, wv), axis=1).T
            gx += gq @ wq.T
            gx += g
        gkv_w = xd.T @ gkv if need[3] or need[4] else None
        return (gx,
                xd.T @ gq if need[1] else None,
                ag._column_sum(gq) if need[2] else None,
                np.ascontiguousarray(gkv_w[:, :d]) if need[3] else None,
                np.ascontiguousarray(gkv_w[:, d:]) if need[4] else None,
                ag._column_sum(gkv[:, d:]) if need[5] else None,
                ctx.T @ gout if need[6] else None,
                ag._column_sum(gout) if need[7] else None)

    return ag._make(out, parents, vjp), attn


def _readout_attention(layer, x, segments, heads, dropout_rate=0.0, rng=None):
    """The attention branch of the readout layer, one query per path, as
    one autograd op: rows + dropout(attention(x)) for the position-0 rows
    -> (output Tensor (U, d), each segment's (U, h, 1, T) attention array).

    With a single query, the key and value projections fold into the query
    and the context, so no token is projected. Per path and head h, let
    q_h be head h of the position-0 row's query times 1/sqrt(d/h). The
    scores over the path's tokens x_j are x_j . q~_h, where q~_h = W_K,h q_h
    is a d-vector. The context is z_h W_V,h + b_V,h, where
    z_h = sum_j s_j x_j; the bias stands outside the sum because the
    scores s_j sum to 1. q~ and the context are each one stack of per-head
    GEMMs on U rows, zero-padded as `ag.gemm` pads them; the scores and z
    are one batched product per segment. The output GEMM, dropout (a
    (U, d) mask drawn from `rng`) and the residual rows follow as in
    `_attention`.

    The vjp keeps the weights by reference, x, the scaled queries, the
    attention and context arrays, z and the bool dropout mask; it
    recomputes q~ from the queries and accumulates both per-token products
    into x's gradient.
    """
    parents = (x, layer.wq, layer.bq, layer.wk, layer.wv, layer.bv, layer.wo, layer.bo)
    need = [p.requires_grad for p in parents]
    xd, wq, bq, wk, wv, bv, wo, bo = (p.data for p in parents)
    d = xd.shape[1]
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=xd.dtype)
    first = _first_rows(segments)
    rows = xd[first]
    qs = ag.gemm(rows, wq)  # the scaled queries, (U, d)
    qs += bq
    qs *= scale
    wk_t = wk.reshape(d, heads, dh).transpose(1, 2, 0)  # (h, dh, d): each W_K,h^T
    wv_h = wv.reshape(d, heads, dh).transpose(1, 0, 2)  # (h, d, dh): each W_V,h
    qt = ag.gemm(_by_head(qs, heads), wk_t)  # (h, U, d): q~ of every path and head
    z = np.empty((len(rows), heads, d), dtype=xd.dtype)
    spans = list(_spans(segments))
    attn = []
    for t, u, toks, paths in spans:
        xs = xd[toks].reshape(u, t, d)
        s = np.matmul(qt[:, paths].transpose(1, 0, 2), xs.transpose(0, 2, 1))  # (u, h, t)
        ag.softmax_rows_(s)
        np.matmul(s, xs, out=z[paths])
        attn.append(s[:, :, None])
    ctx = ag.gemm(z.transpose(1, 0, 2), wv_h).transpose(1, 0, 2).reshape(len(rows), d)
    ctx += bv
    out = ag.gemm(ctx, wo)
    out += bo
    keep = ag.dropout_keep(out.shape, dropout_rate, rng)
    if keep is not None:
        ag.scale_kept(out, keep, dropout_rate, out=out)
    out += rows

    def vjp(g):
        gout = g if keep is None else ag.scale_kept(g, keep, dropout_rate)
        gctx = gout @ wo.T
        gz = _by_head(gctx, heads) @ wv_h.transpose(0, 2, 1)  # (h, U, d)
        gqt = np.empty_like(z)  # (U, h, d)
        gx = qt = None
        if need[0]:
            gx = np.empty_like(xd)
            qt = ag.gemm(_by_head(qs, heads), wk_t)
        for (t, u, toks, paths), s in zip(spans, attn):
            s = s[:, :, 0]
            xs = xd[toks].reshape(u, t, d)
            gzs = gz[:, paths].transpose(1, 0, 2)  # (u, h, d)
            ge = ag.softmax_vjp(np.matmul(gzs, xs.transpose(0, 2, 1)), s)
            np.matmul(ge, xs, out=gqt[paths])
            if need[0]:
                gxs = gx[toks].reshape(u, t, d)
                np.matmul(s.transpose(0, 2, 1), gzs, out=gxs)
                gxs += np.matmul(ge.transpose(0, 2, 1), qt[:, paths].transpose(1, 0, 2))
        del gz, qt
        gq = None
        if need[0] or need[1] or need[2]:
            gq = (gqt.transpose(1, 0, 2) @ wk_t.transpose(0, 2, 1)).transpose(1, 0, 2)
            gq = gq.reshape(len(gq), d)  # a copy
            gq *= scale
        if need[0]:
            gx[first] += gq @ wq.T
            gx[first] += g
        return (gx,
                xd[first].T @ gq if need[1] else None,
                ag._column_sum(gq) if need[2] else None,
                _head_outer(gqt, qs, heads) if need[3] else None,
                _head_outer(z, gctx, heads) if need[4] else None,
                ag._column_sum(gctx) if need[5] else None,
                ctx.T @ gout if need[6] else None,
                ag._column_sum(gout) if need[7] else None)

    return ag._make(out, parents, vjp), attn


def _feed_forward(layer, x, dropout_rate, rng):
    """The feed-forward branch of a layer, as one autograd op:
    x + dropout(relu(x w1 + b1) w2 + b2) for rows x (R, d) -> (R, d).

    Each bias is added in place into its GEMM's output, and ReLU, dropout
    (a mask drawn from `rng`) and the residual run in place too. The vjp
    keeps x, the post-ReLU h and the bool dropout mask (and the weights by
    reference); each gradient sums in the order of the `matmul`, `relu`,
    `matmul`, `dropout` and `add` chain it replaces.
    """
    parents = (x, layer.w1, layer.b1, layer.w2, layer.b2)
    need = [p.requires_grad for p in parents]
    xd, w1, b1, w2, b2 = (p.data for p in parents)
    h = ag.gemm(xd, w1)
    h += b1
    np.maximum(h, 0, out=h)
    out = ag.gemm(h, w2)
    out += b2
    keep = ag.dropout_keep(out.shape, dropout_rate, rng)
    if keep is not None:
        ag.scale_kept(out, keep, dropout_rate, out=out)
    out += xd
    need_h = need[0] or need[1] or need[2]

    def vjp(g):
        gf = g if keep is None else ag.scale_kept(g, keep, dropout_rate)
        gh = None
        if need_h:
            gh = gf @ w2.T
            gh *= h > 0
        gx = None
        if need[0]:
            gx = gh @ w1.T
            gx += g
        return (gx,
                xd.T @ gh if need[1] else None,
                ag._column_sum(gh) if need[2] else None,
                h.T @ gf if need[3] else None,
                ag._column_sum(gf) if need[4] else None)

    return ag._make(out, parents, vjp)


def _encoder_layer(layer, x, segments, heads, dropout_rate, rng, readout=False):
    """One post-norm layer on packed tokens x (P, d) -> (output (R, d),
    each segment's attention array): the attention branch, layer norm, the
    feed-forward branch, layer norm, each one autograd op.

    The R query rows are all P tokens (`_attention`), or with `readout`
    each path's position-0 row alone, the row the path representation is
    read from (`_readout_attention`, one row per path, which projects no
    token to a key or value).
    """
    branch = _readout_attention if readout else _attention
    out, attn = branch(layer, x, segments, heads, dropout_rate, rng)
    x = ag.layer_norm(out, layer.ln1_g, layer.ln1_b)
    x = ag.layer_norm(_feed_forward(layer, x, dropout_rate, rng), layer.ln2_g, layer.ln2_b)
    return x, attn


def _first_rows(segments):
    """The packed row of each path's position-0 token, in path order."""
    return np.concatenate([np.arange(toks.start, toks.stop, t)
                           for t, _, toks, _ in _spans(segments)])


def _embed(params, pos, path_features, segments):
    """Input projection plus positions: packed (P, F) features -> (P, d).
    The first forward step; it checks the features against `segments`."""
    shape = path_features.shape
    if path_features.data.ndim != 2:
        raise ShapeMismatch("expected packed (P, F) features", shape)
    if any(t < 1 or u < 0 for t, u in segments):
        raise ShapeMismatch(f"segments {segments} need T >= 1 tokens and U >= 0 paths")
    if sum(t * u for t, u in segments) != shape[0]:
        raise ShapeMismatch(f"segments {segments} do not cover the packed tokens", shape)
    t_max = max((t for t, _ in segments), default=0)
    if t_max > pos.shape[0]:
        raise PathTooLong(f"{t_max} tokens exceeds position table length {pos.shape[0]}")
    if shape[1] != params.w_in.shape[0]:
        raise ShapeMismatch("feature width vs input projection", shape, params.w_in.shape)
    x = ag.matmul(path_features, params.w_in, params.b_in)
    positions = np.concatenate([np.tile(np.arange(t), u) for t, u in segments])
    return ag.add(x, Tensor(pos[positions].astype(x.dtype, copy=False)))


def encode_paths(params: EncoderParams, pos, path_features, segments, rng=None,
                 dropout_rate=0.0):
    """Encode packed paths of several lengths in one pass.

    pos: position table (max_len, d); path_features: Tensor (P, F) of
    per-token node features; segments: a (T, U) pair per path length, in
    the order the features hold them: U paths of T tokens each, path by
    path, each path in path order. rng: the dropout stream, None for
    inference. Returns the path representations, a (sum of U, d) Tensor in
    the same order.
    """
    x = _embed(params, pos, path_features, segments)
    for k, layer in enumerate(params.layers):
        x = _encoder_layer(layer, x, segments, params.heads, dropout_rate, rng,
                           readout=k == len(params.layers) - 1)[0]
    return x


def attention_maps(params: EncoderParams, pos, path_features):
    """The (N, heads, T, T) attention array of every layer, in layer order,
    for N equal-length paths (N, T, F), with every token as a query; one
    inference forward without dropout that records no autograd graph."""
    if path_features.data.ndim != 3:
        raise ShapeMismatch("expected (N, T, F) features", path_features.shape)
    n, t, f = path_features.shape
    segments = ((t, n),)
    with ag.no_record():
        x = _embed(params, pos, Tensor(path_features.data.reshape(n * t, f)), segments)
        maps = []
        for layer in params.layers:
            x, attn = _encoder_layer(layer, x, segments, params.heads, 0.0, None)
            maps.append(attn[0])
    return maps
