"""Multiple-instance detector for pre-extracted video segment features.

Videos are bags of per-clip feature vectors; a bag is positive when at
least one clip shows the target entity. A small fully-connected scorer is
trained with a bag-max hinge objective and evaluated with ROC/AUC at the
bag level.
"""

from .bag_model import (
    Bag,
    Dataset,
    assemble_bag,
    infer_bag_label,
    load_dataset,
    pool_segments,
)
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
from .evaluation import (
    ConfusionCounts,
    EvalReport,
    RatesReport,
    RocCurve,
    confusion,
    evaluate_bags,
    rates,
    roc_auc,
    score_bags,
)
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
from .objective import BagLoss, bag_maxima, bag_score, objective, objective_gradient
from .optimizers import OptimizerConfig, make_optimizer
from .scorer import (
    ForwardTrace,
    Gradients,
    ScorerConfig,
    ScoringModel,
    backward,
    default_layer_dims,
    forward_batch,
    glorot_std,
    init_glorot_normal,
    score,
)
from .trainer import TrainConfig, TrainLog, compare_optimizers, plan_batches, train

__version__ = "0.1.0"

__all__ = [
    "Bag",
    "BagLoss",
    "ConfigError",
    "ConfusionCounts",
    "CorruptionError",
    "Dataset",
    "EvalReport",
    "FeatureMatrix",
    "FormatError",
    "ForwardTrace",
    "Gradients",
    "ManifestEntry",
    "MilvidError",
    "OptimizerConfig",
    "RatesReport",
    "RocCurve",
    "ScorerConfig",
    "ScoringModel",
    "ShapeError",
    "SynthConfig",
    "TrainConfig",
    "TrainLog",
    "TrainingAbort",
    "ValidationError",
    "assemble_bag",
    "backward",
    "bag_maxima",
    "bag_score",
    "compare_optimizers",
    "confusion",
    "default_layer_dims",
    "deserialize_model",
    "evaluate_bags",
    "forward_batch",
    "glorot_std",
    "infer_bag_label",
    "init_glorot_normal",
    "load_dataset",
    "load_model",
    "load_train_checkpoint",
    "make_optimizer",
    "objective",
    "objective_gradient",
    "plan_batches",
    "pool_segments",
    "rates",
    "read_features",
    "read_manifest",
    "roc_auc",
    "save_model",
    "score",
    "score_bags",
    "serialize_model",
    "synthesize_dataset",
    "train",
    "write_features",
    "write_manifest",
]
