"""Multiple-instance detector for pre-extracted video segment features.

Videos are bags of per-clip feature vectors; a bag is positive when at
least one clip shows the target entity. A small fully-connected scorer is
trained with a bag-max hinge objective and evaluated with ROC/AUC at the
bag level.

The package root holds the README's library names, the MIL1, manifest and
MVCK readers and writers, and the error classes; everything else is
imported from its submodule (``milvid.objective``, ``milvid.scorer``, ...).
"""

from .bag_model import infer_bag_label, load_dataset
from .checkpoint import (
    deserialize_model,
    load_model,
    load_train_checkpoint,
    save_model,
    serialize_model,
)
from .errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    MilvidError,
    ShapeError,
    TrainingAbort,
    ValidationError,
)
from .evaluation import evaluate_bags
from .feature_store import (
    FeatureMatrix,
    ManifestEntry,
    SynthConfig,
    read_features,
    read_manifest,
    synthesize_dataset,
    write_features,
    write_manifest,
)
from .optimizers import OptimizerConfig
from .scorer import init_glorot_normal
from .trainer import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorruptionError",
    "FeatureMatrix",
    "FormatError",
    "ManifestEntry",
    "MilvidError",
    "OptimizerConfig",
    "ShapeError",
    "SynthConfig",
    "TrainConfig",
    "TrainingAbort",
    "ValidationError",
    "deserialize_model",
    "evaluate_bags",
    "infer_bag_label",
    "init_glorot_normal",
    "load_dataset",
    "load_model",
    "load_train_checkpoint",
    "read_features",
    "read_manifest",
    "save_model",
    "serialize_model",
    "synthesize_dataset",
    "train",
    "write_features",
    "write_manifest",
]
