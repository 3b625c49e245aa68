"""Path encoder: feature projection, sinusoidal positions, transformer stack.

A sampled path [c, v_1, ..., v_l] becomes a token sequence whose position
index is each node's walk distance from the central node (the central node
itself sits at position 0). After m post-norm transformer layers the
position-0 output is the path representation. Only that row leaves the
encoder, so the last layer queries from position 0 alone: its keys and
values come from every token, and everything past them runs on one row per
path instead of T. `attention_maps` runs every layer on all T rows to
report the full (T, T) maps. `layer_shapes` names and shapes one layer's
parameters; `model.PathSageModel.build` makes them.
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


def _split_heads(x, heads):
    n, t, d = x.shape
    x = ag.reshape(x, (n, t, heads, d // heads))
    return ag.transpose(x, (0, 2, 1, 3))  # (N, h, T, dh)


def _encoder_layer(layer, x, heads, dropout_rate, rng, readout=False):
    """One post-norm layer on x (N, T, d) -> (output (N, R, d), attention
    (N, h, R, T) array).

    Keys and values come from every token. The R query rows are all T
    tokens, or with `readout` position 0 alone (R = 1), the row the path
    representation is read from. Each bias is added inside its GEMM.
    """
    n, t, d = x.shape
    rows = ag.reshape(ag.select(x, 1, 0), (n, 1, d)) if readout else x
    q = _split_heads(ag.matmul(rows, layer.wq, layer.bq), heads)
    # keys go straight to (N, h, dh, T): one transpose copy
    k = ag.transpose(ag.reshape(ag.matmul(x, layer.wk), (n, t, heads, d // heads)), (0, 2, 3, 1))
    v = _split_heads(ag.matmul(x, layer.wv, layer.bv), heads)
    scores = ag.scale(ag.matmul(q, k), 1.0 / math.sqrt(d // heads))
    attn = ag.softmax(scores)                       # (N, h, R, T)
    ctx = ag.reshape(ag.transpose(ag.matmul(attn, v), (0, 2, 1, 3)), rows.shape)
    out = ag.dropout(ag.matmul(ctx, layer.wo, layer.bo), dropout_rate, rng)
    x = ag.layer_norm(ag.add(rows, out), layer.ln1_g, layer.ln1_b)
    ff = ag.matmul(ag.relu(ag.matmul(x, layer.w1, layer.b1)), layer.w2, layer.b2)
    ff = ag.dropout(ff, dropout_rate, rng)
    x = ag.layer_norm(ag.add(x, ff), layer.ln2_g, layer.ln2_b)
    return x, attn.data


def _embed(params, pos, path_features):
    """Input projection plus positions: (N, T, F) features -> (N, T, d)."""
    if path_features.data.ndim != 3:
        raise ShapeMismatch("expected (N, T, F) features", path_features.shape)
    t = path_features.shape[1]
    if t > pos.shape[0]:
        raise PathTooLong(f"{t} tokens exceeds position table length {pos.shape[0]}")
    if path_features.shape[2] != params.w_in.shape[0]:
        raise ShapeMismatch("feature width vs input projection",
                            path_features.shape, params.w_in.shape)
    x = ag.matmul(path_features, params.w_in, params.b_in)
    return ag.add(x, Tensor(pos[:t].astype(x.dtype)))


def encode_paths(params: EncoderParams, pos, path_features, rng=None,
                 dropout_rate=0.0):
    """Encode a batch of equal-length paths.

    pos: position table (max_len, d); path_features: Tensor (N, T, F) of
    per-token node features in path order; rng: the dropout stream, None
    for inference. Returns the path representations, an (N, d) Tensor.
    """
    x = _embed(params, pos, path_features)
    for k, layer in enumerate(params.layers):
        x = _encoder_layer(layer, x, params.heads, dropout_rate, rng,
                           readout=k == len(params.layers) - 1)[0]
    return ag.reshape(x, (x.shape[0], x.shape[2]))


def attention_maps(params: EncoderParams, pos, path_features):
    """The (N, heads, T, T) attention array of every layer, in layer order,
    with every token as a query; one inference forward without dropout that
    records no autograd graph."""
    with ag.no_record():
        x = _embed(params, pos, path_features)
        maps = []
        for layer in params.layers:
            x, attn = _encoder_layer(layer, x, params.heads, 0.0, None)
            maps.append(attn)
    return maps
