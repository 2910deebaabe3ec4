"""The paper's contribution: comparative performance prediction from ASTs.

``TreeFeaturizer`` turns source into model-ready trees; ``build_model``
assembles encoder F (tree-LSTM or GCN) + classifier C;
:class:`repro.engine.Engine` optimizes BCE over code pairs;
``evaluate``/``pipeline`` implement the paper's measurement protocols
end to end.
"""

from ..engine import TrainConfig, TrainHistory
from .baselines import (
    AbsoluteRuntimeRegressor, LoopNestingHeuristic, NodeCountHeuristic,
    WeightedConstructHeuristic, baseline_accuracy,
)
from .classifier import PairClassifier
from .encoders import GcnEncoder, LstmEncoder, TreeLstmEncoder
from .evaluate import EvalResult, evaluate_on_pairs, sensitivity_curve
from .features import ForestFeatures, TreeFeatures, TreeFeaturizer, pack_forest
from .metrics import RocCurve, accuracy, auc, confusion, roc_curve
from .model import ENCODER_KINDS, ComparativeModel, build_model, model_from_config
from .pipeline import ExperimentConfig, ExperimentResult, run_experiment

__all__ = [
    "TreeFeatures", "TreeFeaturizer", "ForestFeatures", "pack_forest",
    "TreeLstmEncoder", "GcnEncoder", "LstmEncoder", "PairClassifier",
    "ComparativeModel", "build_model", "model_from_config", "ENCODER_KINDS",
    "TrainConfig", "TrainHistory",
    "accuracy", "confusion", "RocCurve", "roc_curve", "auc",
    "EvalResult", "evaluate_on_pairs", "sensitivity_curve",
    "ExperimentConfig", "ExperimentResult", "run_experiment",
    "NodeCountHeuristic", "LoopNestingHeuristic",
    "WeightedConstructHeuristic", "AbsoluteRuntimeRegressor",
    "baseline_accuracy",
]
