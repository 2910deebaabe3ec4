"""Integration tests: training reduces loss and beats chance; the
pipeline and the service's regression check behave as the paper
describes."""

import numpy as np
import pytest

from repro.core import (
    ExperimentConfig, TrainConfig, build_model, evaluate_on_pairs,
    run_experiment, sensitivity_curve,
)
from repro.data import sample_pairs, split_submissions
from repro.engine import Engine
from repro.serve import PredictionService


@pytest.fixture(scope="module")
def trained(corpus_c):
    """One GCN experiment on the C corpus (fast enough for unit tests)."""
    config = ExperimentConfig(
        encoder_kind="gcn", embedding_dim=12, hidden_size=12, num_layers=2,
        train_pairs=100, eval_pairs=80, seed=5,
        train=TrainConfig(epochs=8, batch_size=16, learning_rate=8e-3))
    return run_experiment(corpus_c, config)


class TestTraining:
    def test_loss_decreases(self, trained):
        losses = trained.history.losses
        assert losses[-1] < losses[0]

    def test_beats_chance_on_disjoint_split(self, trained):
        # Problem C has a clear fast/slow algorithmic split, so even a
        # small model should clear 0.6 on held-out submissions.
        assert trained.evaluation.accuracy > 0.6
        assert trained.evaluation.auc > 0.6

    def test_train_test_disjoint(self, trained):
        train_ids = {s.submission_id for s in trained.train_submissions}
        test_ids = {s.submission_id for s in trained.test_submissions}
        assert not train_ids & test_ids

    def test_empty_pairs_rejected(self, corpus_c):
        model = build_model(encoder_kind="gcn", embedding_dim=8, hidden_size=8)
        with pytest.raises(ValueError):
            Engine(model).fit([])

    def test_treelstm_smoke_training(self, corpus_c):
        """Tiny tree-LSTM run: loss must go down (full accuracy checks
        live in the benchmark harness where budgets are larger)."""
        model = build_model(encoder_kind="treelstm", embedding_dim=8,
                            hidden_size=8, seed=0)
        rng = np.random.default_rng(0)
        pairs = sample_pairs(corpus_c, 24, rng)
        engine = Engine(model, TrainConfig(epochs=3, batch_size=8,
                                           learning_rate=8e-3))
        history = engine.fit(pairs)
        assert history.losses[-1] < history.losses[0]

    def test_early_stopping(self, corpus_c):
        model = build_model(encoder_kind="gcn", embedding_dim=8,
                            hidden_size=8)
        rng = np.random.default_rng(1)
        train, test = split_submissions(corpus_c, 0.7, rng)
        train_pairs = sample_pairs(train, 40, rng)
        val_pairs = sample_pairs(test, 30, rng)
        engine = Engine(model, TrainConfig(epochs=50, batch_size=16,
                                           learning_rate=8e-3,
                                           early_stop_patience=2))
        history = engine.fit(train_pairs, val_pairs=val_pairs)
        assert len(history.losses) < 50  # stopped before the budget
        assert history.stopped_early


class TestEvaluation:
    def test_evaluate_on_pairs_fields(self, trained, corpus_c):
        rng = np.random.default_rng(2)
        pairs = sample_pairs(trained.test_submissions, 30, rng)
        result = evaluate_on_pairs(trained.engine, pairs)
        assert result.num_pairs == 30
        assert 0.0 <= result.accuracy <= 1.0

    def test_sensitivity_curve_shape(self, trained):
        rng = np.random.default_rng(3)
        pairs = sample_pairs(trained.test_submissions, 60, rng)
        curve = sensitivity_curve(trained.engine, pairs,
                                  [0.0, 5.0, 10.0, 1e9])
        assert len(curve) == 4
        threshold0 = curve[0]
        assert threshold0[2] == len(pairs)  # zero threshold keeps every pair
        assert curve[-1][2] == 0    # impossible threshold keeps none
        assert np.isnan(curve[-1][1])


class TestRegressionCheck:
    @pytest.fixture
    def service(self, trained):
        with PredictionService(trained.engine.model, threaded=False) as svc:
            yield svc

    def test_flags_slower_rewrite(self, service, corpus_c):
        # Pick a fast and a slow submission from the corpus.
        ordered = sorted(corpus_c, key=lambda s: s.mean_runtime_ms)
        fast, slow = ordered[0], ordered[-1]
        prob_regression = service.check_regression(
            fast.source, slow.source)["regression_probability"]
        prob_improvement = service.check_regression(
            slow.source, fast.source)["regression_probability"]
        assert prob_regression > prob_improvement

    def test_check_payload(self, service, corpus_c):
        result = service.check_regression(corpus_c[0].source,
                                          corpus_c[1].source, threshold=0.5)
        assert set(result) == {"regression_probability", "flagged", "threshold"}

    def test_threshold_validation(self, service, corpus_c):
        with pytest.raises(ValueError):
            service.check_regression(corpus_c[0].source, corpus_c[1].source,
                                     threshold=1.5)
