"""Graph node classification by random-path sampling and transformer
aggregation, on a self-contained numpy tensor engine."""

from .graph import Graph, LabelSet, SplitMasks, load_dataset
from .model import ModelConfig, PathSageModel
from .sampler import SamplePlan, derive_sample_seed, sample_paths
from .trainer import OptimizerState, TrainConfig, fit, lr_at

__version__ = "0.1.0"

__all__ = [
    "Graph", "LabelSet", "SplitMasks", "load_dataset",
    "ModelConfig", "PathSageModel",
    "SamplePlan", "derive_sample_seed", "sample_paths",
    "OptimizerState", "TrainConfig", "fit", "lr_at",
    "__version__",
]
