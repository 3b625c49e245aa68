"""Full model: shared path encoder + per-length pooling + fusion head."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import EncoderParams, build_position_table, encode_paths
from .errors import ShapeMismatch
from .graph import Graph
from .head import HeadParams, head_forward
from .sampler import SamplePlan


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


@dataclass
class PathSageModel:
    config: ModelConfig
    encoder: EncoderParams
    head: HeadParams
    pos_table: object = field(default=None)

    @staticmethod
    def init(config: ModelConfig, rng, dtype=np.float32):
        enc = EncoderParams.init(rng, config.feature_dim, config.hidden,
                                 config.heads, config.layers, dtype=dtype)
        head = HeadParams.init(rng, config.depth_s, config.hidden,
                               config.num_classes, dtype=dtype)
        model = PathSageModel(config=config, encoder=enc, head=head)
        model.pos_table = build_position_table(config.depth_s + 1, config.hidden,
                                               dtype=dtype)
        return model

    def named_params(self):
        yield from self.encoder.named_params()
        yield from self.head.named_params()

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()

    def forward_batch(self, graph: Graph, batches, train=False, rng=None,
                      collect_attention=False):
        """Forward a list of PathBatches (one per central node).

        All central nodes must share the same sample plan shape. Returns
        (logits Tensor (B, num_classes), attention) where attention, when
        requested, maps length l -> list over layers of (B*n_l, heads, T, T)
        arrays in central-node-major path order.
        """
        if not batches:
            raise ShapeMismatch("empty batch")
        s = len(batches[0].paths_by_length)
        if s != self.config.depth_s:
            raise ShapeMismatch(f"batch depth {s} != model depth {self.config.depth_s}")
        pooled = []
        attention = {} if collect_attention else None
        b = len(batches)
        for l in range(1, s + 1):
            walks = np.concatenate([pb.paths_by_length[l - 1] for pb in batches], axis=0)
            n_l = batches[0].paths_by_length[l - 1].shape[0]
            feats = Tensor(graph.features[walks])  # (B*n_l, l+1, F)
            reprs, attn = encode_paths(self.encoder, self.pos_table, feats,
                                       train=train, rng=rng,
                                       dropout_rate=self.config.dropout_encoder)
            if collect_attention:
                attention[l] = attn
            reprs = ag.reshape(reprs, (b, n_l, self.config.hidden))
            pooled.append(ag.canonical_bucket_mean(reprs))  # (B, d)
        concat = ag.concat(pooled, axis=-1)                 # (B, s*d)
        logits = head_forward(self.head, concat, train=train, rng=rng,
                              dropout_rate=self.config.dropout_output)
        return logits, attention

    def plan(self, counts_per_length):
        return SamplePlan(depth_s=self.config.depth_s,
                          counts_per_length=tuple(counts_per_length))
