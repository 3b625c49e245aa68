"""Full model: shared path encoder + per-length pooling + fusion head -> logits."""

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
        # layers >= 1: the path representation is the last layer's position-0 row
        for name in ("hidden", "heads", "layers", "depth_s"):
            if getattr(self, name) < 1:
                raise InvalidSetting(f"{name} must be >= 1, got {getattr(self, name)}")
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
        """Forward a batch's `sample_paths` tuple, whose entry l-1 is the
        int64 (B, n_l, l+1) array of length-l walks; dropout runs only when
        a dropout stream `rng` is given. Returns the logits, a Tensor
        (B, num_classes).
        """
        if len(walks) != self.config.depth_s:
            raise ShapeMismatch(f"batch depth {len(walks)} != model depth {self.config.depth_s}")
        b = walks[0].shape[0]
        for l, w in enumerate(walks, start=1):
            if w.ndim != 3 or w.shape[0] != b or w.shape[2] != l + 1:
                raise ShapeMismatch(f"length-{l} walks of shape {w.shape} in a batch of {b}")
        if b == 0:
            raise ShapeMismatch("empty batch")
        pooled = []
        for l, w in enumerate(walks, start=1):
            feats = Tensor(graph.features[w.reshape(-1, l + 1)])  # (B*n_l, l+1, F)
            reprs = encode_paths(self.encoder, self.pos_table, feats, rng=rng,
                                 dropout_rate=self.config.dropout_encoder)
            reprs = ag.reshape(reprs, w.shape[:2] + (self.config.hidden,))
            pooled.append(ag.canonical_bucket_mean(reprs))  # (B, d)
        concat = ag.concat(pooled, axis=-1)                 # (B, s*d)
        return head_forward(self.head, concat, rng=rng,
                            dropout_rate=self.config.dropout_output)
