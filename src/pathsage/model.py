"""Full model: shared path encoder + per-length pooling + fusion head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import EncoderParams, build_position_table, encode_paths
from .errors import InvalidSetting, ShapeMismatch
from .graph import Graph
from .head import HeadParams, head_forward


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
        for name in ("hidden", "heads", "depth_s"):
            if getattr(self, name) < 1:
                raise InvalidSetting(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class PathSageModel:
    config: ModelConfig
    encoder: EncoderParams
    head: HeadParams
    pos_table: np.ndarray  # (depth_s + 1, hidden)

    @staticmethod
    def init(config: ModelConfig, rng, dtype=np.float32):
        enc = EncoderParams.init(rng, config.feature_dim, config.hidden,
                                 config.heads, config.layers, dtype=dtype)
        head = HeadParams.init(rng, config.depth_s, config.hidden,
                               config.num_classes, dtype=dtype)
        pos = build_position_table(config.depth_s + 1, config.hidden, dtype=dtype)
        return PathSageModel(config=config, encoder=enc, head=head, pos_table=pos)

    def named_params(self):
        yield from self.encoder.named_params()
        yield from self.head.named_params()

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()

    def forward_batch(self, graph: Graph, walks, rng=None):
        """Forward one `sample_paths` walk tuple per central node; dropout
        runs only when a dropout stream `rng` is given.

        All central nodes must share the same sample plan shape. Returns
        (logits Tensor (B, num_classes), attention) where attention maps
        length l -> list over layers of (B*n_l, heads, T, T) arrays in
        central-node-major path order.
        """
        if not walks:
            raise ShapeMismatch("empty batch")
        shapes = [w.shape for w in walks[0]]
        for walk in walks:
            if [w.shape for w in walk] != shapes:
                raise ShapeMismatch(f"walk shapes {[w.shape for w in walk]} != {shapes} "
                                    "of the batch's first central node")
        s = len(shapes)
        if s != self.config.depth_s:
            raise ShapeMismatch(f"batch depth {s} != model depth {self.config.depth_s}")
        pooled = []
        attention = {}
        b = len(walks)
        for l in range(1, s + 1):
            paths = np.concatenate([w[l - 1] for w in walks], axis=0)
            n_l = shapes[l - 1][0]
            feats = Tensor(graph.features[paths])  # (B*n_l, l+1, F)
            reprs, attention[l] = encode_paths(self.encoder, self.pos_table, feats, rng=rng,
                                               dropout_rate=self.config.dropout_encoder)
            reprs = ag.reshape(reprs, (b, n_l, self.config.hidden))
            pooled.append(ag.canonical_bucket_mean(reprs))  # (B, d)
        concat = ag.concat(pooled, axis=-1)                 # (B, s*d)
        logits = head_forward(self.head, concat, rng=rng,
                              dropout_rate=self.config.dropout_output)
        return logits, attention
