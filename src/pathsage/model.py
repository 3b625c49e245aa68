"""Full model: shared path encoder + per-length pooling + fusion head -> logits.

Every model, fresh (`init`) or restored from a checkpoint, is made by
`PathSageModel.build` from one table of parameter names and shapes.
A forward packs consecutive walk lengths into chunks of at most
`PACK_TOKENS` tokens and encodes each chunk in one encoder pass. An
inference forward encodes each distinct walk of a batch once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import EncoderParams, build_position_table, encode_paths, layer_shapes
from .errors import InvalidSetting, ShapeMismatch
from .graph import Graph
from .head import HeadParams, head_forward


# Most tokens one encoder pass packs (consecutive lengths, whole lengths
# only). Packing saves per-op overhead, but a pass's arrays grow with its
# tokens. On the benchmark workloads (shared 2-CPU x86-64 host; 8 rounds
# interleaved in one process, peak RSS from three 12 s runs each):
# - 1024 was slower than 2048: ring3-small train x0.94, ring3-paper eval x0.95;
# - 4096 was level with 2048 (ring3-paper eval x1.06, better in 5 of 8
#   rounds), but raised ring3-paper peak RSS from 160 to 168 MB;
# - no bound (a batch in one pass) cut er-infer eval from 1206 to 1075
#   nodes/s (x0.93 in one process) and raised peak RSS from 160 to 208 MB
#   on ring3-paper and from 79 to 106 MB on er-infer.
PACK_TOKENS = 2048
_ROW_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd: multiplying by it is a bijection


def distinct_rows(rows):
    """(keep, inverse) for a 2-D integer array: `rows[keep]` holds each
    distinct row once, and `rows[keep][inverse]` equals `rows`.

    Rows are sorted by a 64-bit hash, and a row opens a new group unless it
    equals its predecessor in every field. So two different rows are never
    merged; a hash collision can only leave a duplicate row in place.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = rows.view(np.uint64)  # same bits; uint64 arithmetic wraps modulo 2**64
    h = cols[:, 0] * _ROW_HASH_MUL
    for j in range(1, cols.shape[1]):
        h ^= cols[:, j]
        h *= _ROW_HASH_MUL
    order = np.argsort(h)
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


@dataclass
class ModelConfig:
    feature_dim: int
    num_classes: int
    task: str
    hidden: int = 128
    heads: int = 8
    layers: int = 2
    depth_s: int = 8
    dropout_encoder: float = 0.1
    dropout_output: float = 0.3

    def __post_init__(self):
        # layers >= 1: the path representation is the last layer's position-0 row
        for name in ("hidden", "heads", "layers", "depth_s"):
            if getattr(self, name) < 1:
                raise InvalidSetting(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden % self.heads:
            raise InvalidSetting(f"hidden {self.hidden} not divisible by heads {self.heads}")
        for name in ("dropout_encoder", "dropout_output"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InvalidSetting(f"{name} {getattr(self, name)} outside [0, 1)")


@dataclass
class PathSageModel:
    config: ModelConfig
    encoder: EncoderParams
    head: HeadParams
    pos_table: np.ndarray  # (depth_s + 1, hidden)

    @staticmethod
    def build(config: ModelConfig, take):
        """The model whose parameters are `take(name, shape)`, asked for in
        `named_params` order (another shape raises ShapeMismatch); positions take w_in's dtype."""
        def group(prefix, shapes):
            out = {}
            for name, shape in shapes:
                arr = take(f"{prefix}.{name}", shape)
                if arr.shape != shape:
                    raise ShapeMismatch(f"parameter {prefix}.{name}", arr.shape, shape)
                out[name] = Tensor(arr, requires_grad=True)
            return out

        f, d, s, k = config.feature_dim, config.hidden, config.depth_s, config.num_classes
        stem = group("encoder", (("w_in", (f, d)), ("b_in", (d,))))
        layers = [SimpleNamespace(**group(f"encoder.layer{i}", layer_shapes(d)))
                  for i in range(config.layers)]
        enc = EncoderParams(heads=config.heads, layers=layers, **stem)
        head = HeadParams(**group("head", (("w1", (s * d, d)), ("b1", (d,)),
                                           ("w2", (d, k)), ("b2", (k,)))))
        pos = build_position_table(s + 1, d, dtype=enc.w_in.dtype)
        return PathSageModel(config=config, encoder=enc, head=head, pos_table=pos)

    @staticmethod
    def init(config: ModelConfig, rng, dtype=np.float32):
        """A fresh model: 2-D weights (fan_in, fan_out) ~ U(+-1/sqrt(fan_in)),
        drawn in `named_params` order; layer-norm gains (`*_g`) 1, the rest 0."""
        def draw(name, shape):
            if len(shape) == 2:
                bound = 1.0 / math.sqrt(shape[0])
                return rng.uniform(-bound, bound, size=shape).astype(dtype)
            return (np.ones if name.endswith("_g") else np.zeros)(shape, dtype=dtype)

        return PathSageModel.build(config, draw)

    def named_params(self):
        yield from self.encoder.named_params()
        yield from self.head.named_params()

    def non_finite_param(self):
        """The name of the first parameter holding a NaN or an infinity, or None."""
        return next((name for name, p in self.named_params()
                     if not np.isfinite(p.data).all()), None)

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()

    def forward_batch(self, graph: Graph, walks, rng=None):
        """Forward a batch's `sample_paths` tuple, whose entry l-1 is the
        int64 (B, n_l, l+1) array of length-l walks; dropout runs only when
        a dropout stream `rng` is given. Returns the logits, a Tensor
        (B, num_classes).

        Consecutive lengths are grouped into chunks of at most
        `PACK_TOKENS` tokens (`_chunks`), and each chunk is one
        `encode_paths` call on its packed features, so every tokenwise op
        runs once per layer per chunk. `take_rows` then gathers each
        length's (B, n_l, d) representations for pooling.

        Without a dropout stream and outside recording (`ag.no_record`), a
        path's representation depends only on its node sequence, so each
        distinct walk of a length is encoded once and gathered back to every
        walk that repeats it. Pooling sees the same rows either way.
        """
        if len(walks) != self.config.depth_s:
            raise ShapeMismatch(f"batch depth {len(walks)} != model depth {self.config.depth_s}")
        b = walks[0].shape[0]
        for l, w in enumerate(walks, start=1):
            if w.ndim != 3 or w.shape[0] != b or w.shape[2] != l + 1:
                raise ShapeMismatch(f"length-{l} walks of shape {w.shape} in a batch of {b}")
        if b == 0:
            raise ShapeMismatch("empty batch")
        dedupe = rng is None and not ag.is_recording()
        lengths = []                                          # (l, rows, inverse)
        for l, w in enumerate(walks, start=1):
            rows = w.reshape(-1, l + 1)                       # (B*n_l, l+1)
            inverse = np.arange(len(rows))
            if dedupe:
                keep, inverse = distinct_rows(rows)
                rows = rows[keep]
            lengths.append((l, rows, inverse.reshape(w.shape[:2])))
        pooled = []
        for chunk in _chunks(lengths):
            feats = Tensor(graph.features[np.concatenate([rows.reshape(-1)
                                                          for _, rows, _ in chunk])])
            segments = tuple((l + 1, len(rows)) for l, rows, _ in chunk)
            reprs = encode_paths(self.encoder, self.pos_table, feats, segments, rng=rng,
                                 dropout_rate=self.config.dropout_encoder)  # (sum U, d)
            start = 0
            for _, rows, inverse in chunk:
                # this length's representation of every walk, (B, n_l, d)
                pooled.append(ag.canonical_bucket_mean(ag.take_rows(reprs, start + inverse)))
                start += len(rows)
        concat = ag.concat(pooled)                          # (B, s*d)
        return head_forward(self.head, concat, rng=rng,
                            dropout_rate=self.config.dropout_output)


def _chunks(lengths):
    """Consecutive (l, rows, inverse) entries grouped into chunks of at most
    `PACK_TOKENS` tokens; a length with more tokens is a chunk alone."""
    chunk, tokens = [], 0
    for entry in lengths:
        size = entry[1].size
        if chunk and tokens + size > PACK_TOKENS:
            yield chunk
            chunk, tokens = [], 0
        chunk.append(entry)
        tokens += size
    if chunk:
        yield chunk
