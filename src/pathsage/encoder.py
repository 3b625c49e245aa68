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
attention branch (`_attention`), layer norm, the feed-forward branch
(`_feed_forward`) and layer norm. Each branch op has a hand-derived vjp
and applies its dropout and residual add in place; attention runs each
segment's heads as strided views of one query and one key|value buffer.
Only the position-0 row leaves the encoder, so the last layer queries from
those rows alone: its keys and values come from every token, and
everything past them runs on one row per path. `attention_maps` runs every
layer on all T rows of equal-length paths to report the full (T, T) maps.
`layer_shapes` names and shapes one layer's parameters;
`model.PathSageModel.build` makes them.
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


def _spans(segments, readout):
    """(T, U, R, token rows, query rows) of each packed segment: U paths of
    T tokens, R query rows per path (1 with `readout`, else T), and the
    slices of the packed token rows and query rows that hold them."""
    tok = qry = 0
    for t, u in segments:
        r = 1 if readout else t
        yield t, u, r, slice(tok, tok + u * t), slice(qry, qry + u * r)
        tok += u * t
        qry += u * r


def _heads(rows, u, r, heads):
    """A (u * r, d) block of rows, path by path, as a (u, heads, r, d/heads)
    view."""
    return rows.reshape(u, r, heads, -1).transpose(0, 2, 1, 3)


def _attention(layer, x, segments, heads, q_index=None, dropout_rate=0.0, rng=None):
    """The attention branch of a layer over packed paths, as one autograd
    op: rows + dropout(attention(x)) -> (output Tensor (R, d), each
    segment's (U, h, T or 1, T) attention array).

    x (P, d) holds the tokens of every segment, path by path. Keys and
    values come from every token of a path; its queries, and the residual
    rows, are all its rows, or the rows `q_index` alone (the position-0
    rows, one per path). One GEMM makes the queries and one the keys and
    values of every token; each segment then runs its heads as strided
    views of those buffers and writes its context straight into one (R, d)
    buffer, which the output GEMM reads. Dropout, with a mask drawn from
    `rng`, and the residual rows are applied in place on the GEMM's output.
    The vjp loops over the segments the same way, sums each weight gradient
    in one GEMM and adds the residual gradient into x's. It keeps the
    weights by reference, the query, key|value, attention and context
    buffers and the bool dropout mask.
    """
    parents = (x, layer.wq, layer.bq, layer.wk, layer.wv, layer.bv, layer.wo, layer.bo)
    need = [p.requires_grad for p in parents]
    xd, wq, bq, wk, wv, bv, wo, bo = (p.data for p in parents)
    d = xd.shape[1]
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=xd.dtype)
    readout = q_index is not None
    rows = xd[q_index] if readout else xd
    q = ag.gemm(rows, wq)
    q += bq
    kv = ag.gemm(xd, np.concatenate((wk, wv), axis=1))  # (P, 2d): keys | values
    kv[:, d:] += bv
    ctx = np.empty_like(q)
    spans = list(_spans(segments, readout))
    attn = []
    for t, u, r, toks, qrows in spans:
        kv5 = kv[toks].reshape(u, t, 2, heads, dh)
        s = np.matmul(_heads(q[qrows], u, r, heads), kv5[:, :, 0].transpose(0, 2, 3, 1))
        s *= scale
        ag.softmax_rows_(s)
        np.matmul(s, kv5[:, :, 1].transpose(0, 2, 1, 3), out=_heads(ctx[qrows], u, r, heads))
        attn.append(s)
    out = ag.gemm(ctx, wo)
    out += bo
    keep = ag.dropout_keep(out.shape, dropout_rate, rng)
    if keep is not None:
        ag.scale_kept(out, keep, dropout_rate, out=out)
    out += rows

    def vjp(g):
        gout = g if keep is None else ag.scale_kept(g, keep, dropout_rate)
        gctx = gout @ wo.T
        gq, gkv = np.empty_like(q), np.empty_like(kv)
        for (t, u, r, toks, qrows), s in zip(spans, attn):
            kv5 = kv[toks].reshape(u, t, 2, heads, dh)
            gkv5 = gkv[toks].reshape(u, t, 2, heads, dh)
            k, v = kv5[:, :, 0].transpose(0, 2, 1, 3), kv5[:, :, 1].transpose(0, 2, 1, 3)
            gc = _heads(gctx[qrows], u, r, heads)
            gs = ag.softmax_vjp(np.matmul(gc, v.swapaxes(-1, -2)), s)
            gs *= scale
            np.matmul(s.swapaxes(-1, -2), gc, out=gkv5[:, :, 1].transpose(0, 2, 1, 3))
            np.matmul(gs, k, out=_heads(gq[qrows], u, r, heads))
            np.matmul(gs.swapaxes(-1, -2), _heads(q[qrows], u, r, heads),
                      out=gkv5[:, :, 0].transpose(0, 2, 1, 3))
        gx = None
        if need[0]:
            gx = gkv @ np.concatenate((wk, wv), axis=1).T
            if readout:
                gx[q_index] += gq @ wq.T
                gx[q_index] += g
            else:
                gx += gq @ wq.T
                gx += g
        gkv_w = xd.T @ gkv if need[3] or need[4] else None
        return (gx,
                (xd[q_index] if readout else xd).T @ gq if need[1] else None,
                ag._column_sum(gq) if need[2] else None,
                np.ascontiguousarray(gkv_w[:, :d]) if need[3] else None,
                np.ascontiguousarray(gkv_w[:, d:]) if need[4] else None,
                ag._column_sum(gkv[:, d:]) if need[5] else None,
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

    Keys and values come from every token of a path. The R query rows are
    all P tokens, or with `readout` each path's position-0 row alone (one
    row per path), the row the path representation is read from.
    """
    q_index = _first_rows(segments) if readout else None
    out, attn = _attention(layer, x, segments, heads, q_index, dropout_rate, rng)
    x = ag.layer_norm(out, layer.ln1_g, layer.ln1_b)
    x = ag.layer_norm(_feed_forward(layer, x, dropout_rate, rng), layer.ln2_g, layer.ln2_b)
    return x, attn


def _first_rows(segments):
    """The packed row of each path's position-0 token, in path order."""
    return np.concatenate([np.arange(toks.start, toks.stop, t)
                           for t, _, _, toks, _ in _spans(segments, True)])


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
    return ag.add(x, Tensor(pos[positions].astype(x.dtype)))


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
