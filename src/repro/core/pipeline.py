"""End-to-end pipeline (the paper's Fig. 1 and the "development-phase"
integration of Section I).

``run_experiment`` goes from a submission list to a trained model and
its disjoint-split accuracy in one call — the unit every benchmark
composes. The regression check the paper envisions (given the current
and the proposed version of a source file, flag likely regressions
before any test is run) is
:meth:`repro.serve.PredictionService.check_regression`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus.problem import Submission
from ..data.pairs import CodePair, sample_pairs
from ..data.splits import split_submissions
from ..engine import Engine, TrainConfig
from .evaluate import EvalResult, evaluate_on_pairs
from .model import ComparativeModel, build_model

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment"]


@dataclass
class ExperimentConfig:
    """One training run's knobs (model + data + optimization)."""

    encoder_kind: str = "treelstm"
    embedding_dim: int = 24
    hidden_size: int = 24
    num_layers: int = 1
    direction: str = "alternating"
    train_fraction: float = 0.75
    train_pairs: int = 150
    eval_pairs: int = 120
    two_way: bool = False
    seed: int = 0
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=10, batch_size=16, learning_rate=5e-3))


@dataclass
class ExperimentResult:
    engine: Engine
    evaluation: EvalResult | None
    train_submissions: list[Submission]
    test_submissions: list[Submission]
    history: object


def run_experiment(submissions: list[Submission],
                   config: ExperimentConfig | None = None,
                   model: ComparativeModel | None = None,
                   callbacks=(),
                   resume_from=None, resume_cast: bool = False) -> ExperimentResult:
    """Split -> pair -> train (via :mod:`repro.engine`) -> evaluate.

    ``callbacks`` are extra engine callbacks (checkpointing, pruning,
    custom instrumentation). ``resume_from`` continues a killed run from
    its training checkpoint: the data split and pair sample are
    re-derived deterministically from ``config.seed``, while weights,
    optimizer moments, and the shuffle RNG come from the checkpoint —
    so the finished run is bitwise-identical to an uninterrupted one.
    Setting ``config.eval_pairs = 0`` skips the held-out evaluation
    (``evaluation`` is then ``None``), which the paper-figure drivers
    use when they score the model themselves later.
    """
    config = config or ExperimentConfig()
    rng = np.random.default_rng(config.seed)
    train_subs, test_subs = split_submissions(
        submissions, config.train_fraction, rng)
    train_pairs = sample_pairs(train_subs, config.train_pairs, rng,
                               two_way=config.two_way)
    test_pairs = (sample_pairs(test_subs, config.eval_pairs, rng)
                  if config.eval_pairs else [])
    if resume_from is not None:
        # callbacks ride along into from_checkpoint so stateful ones are
        # installed before the restore and recover their saved state
        engine = Engine.from_checkpoint(resume_from, config=config.train,
                                        extra_callbacks=callbacks,
                                        cast=resume_cast)
    else:
        if model is None:
            model = build_model(
                encoder_kind=config.encoder_kind,
                embedding_dim=config.embedding_dim,
                hidden_size=config.hidden_size, num_layers=config.num_layers,
                direction=config.direction, seed=config.seed)
        engine = Engine(model, config.train)
        for callback in callbacks:
            engine.add_callback(callback)
    history = engine.fit(train_pairs)
    evaluation = evaluate_on_pairs(engine, test_pairs) if test_pairs else None
    return ExperimentResult(engine=engine, evaluation=evaluation,
                            train_submissions=train_subs,
                            test_submissions=test_subs, history=history)
