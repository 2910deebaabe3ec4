"""Tests for the Study/Trial hyper-parameter search."""

import numpy as np
import pytest

from repro.tuning import (
    MedianPruner, RandomSampler, Study, TpeLiteSampler, TrialPruned,
    TrialPruningCallback,
)


class TestStudyBasics:
    def test_runs_requested_trials(self):
        study = Study()
        study.optimize(lambda t: t.suggest_float("x", 0, 1), n_trials=7)
        assert len(study.trials) == 7

    def test_best_trial_maximize(self):
        study = Study(direction="maximize")
        study.optimize(lambda t: t.suggest_float("x", 0, 1), n_trials=20)
        values = [t.value for t in study.trials]
        assert study.best_value == max(values)

    def test_best_trial_minimize(self):
        study = Study(direction="minimize")
        study.optimize(lambda t: t.suggest_float("x", 0, 1), n_trials=20)
        values = [t.value for t in study.trials]
        assert study.best_value == min(values)

    def test_params_recorded(self):
        study = Study()

        def objective(trial):
            layers = trial.suggest_int("layers", 1, 16)
            hidden = trial.suggest_int("hidden", 8, 256)
            return -abs(layers - 6) - abs(hidden - 117) / 100

        study.optimize(objective, n_trials=10)
        assert set(study.best_params) == {"layers", "hidden"}

    def test_pruned_trials_skipped_for_best(self):
        study = Study()

        def objective(trial):
            x = trial.suggest_float("x", 0, 1)
            if x < 0.5:
                raise TrialPruned()
            return x

        study.optimize(objective, n_trials=30)
        assert study.best_value >= 0.5
        assert any(t.state == "PRUNED" for t in study.trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            Study(direction="sideways")
        with pytest.raises(ValueError):
            Study().optimize(lambda t: 0.0, n_trials=0)
        with pytest.raises(ValueError):
            _ = Study().best_trial


class TestSuggestions:
    def test_int_bounds(self):
        study = Study()
        seen = []
        study.optimize(lambda t: seen.append(t.suggest_int("k", 3, 9)) or 0.0,
                       n_trials=40)
        assert all(3 <= v <= 9 for v in seen)
        assert len(set(seen)) > 2

    def test_float_log_scale(self):
        sampler = RandomSampler(seed=3)
        values = [sampler.suggest_float(1e-4, 1e-1, [], log=True)
                  for _ in range(200)]
        assert all(1e-4 <= v <= 1e-1 for v in values)
        # log sampling puts ~half the mass below the geometric mean
        geo_mid = 10 ** ((np.log10(1e-4) + np.log10(1e-1)) / 2)
        frac_below = np.mean([v < geo_mid for v in values])
        assert 0.35 < frac_below < 0.65

    def test_categorical(self):
        study = Study()
        seen = set()
        study.optimize(
            lambda t: seen.add(t.suggest_categorical("d", ["a", "b"])) or 0.0,
            n_trials=30)
        assert seen == {"a", "b"}

    def test_bad_ranges(self):
        study = Study()
        with pytest.raises(ValueError):
            study.optimize(lambda t: t.suggest_int("k", 5, 2), n_trials=1)


class TestTpeLite:
    def test_concentrates_near_good_history(self):
        """Given a history whose best trials sit near x=3, TPE-lite
        samples closer to 3 than a uniform sampler on average."""
        history = [(-(x - 3.0) ** 2, x)
                   for x in np.linspace(-10, 10, 25)]
        tpe = TpeLiteSampler(seed=0, warmup=5, gamma=0.3)
        uniform = RandomSampler(seed=0)
        tpe_dist = np.mean([abs(tpe.suggest_float(-10, 10, history) - 3.0)
                            for _ in range(300)])
        uni_dist = np.mean([abs(uniform.suggest_float(-10, 10, []) - 3.0)
                            for _ in range(300)])
        assert tpe_dist < uni_dist

    def test_optimizes_quadratic_end_to_end(self):
        def objective(trial):
            x = trial.suggest_float("x", -10, 10)
            return -(x - 3.0) ** 2

        study = Study(sampler=TpeLiteSampler(seed=1, warmup=6))
        study.optimize(objective, n_trials=50)
        assert abs(study.best_params["x"] - 3.0) < 2.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            TpeLiteSampler(gamma=1.5)


class TestPruning:
    def test_report_and_should_prune_without_pruner(self):
        study = Study()

        def objective(trial):
            trial.report(0.5, step=1)
            assert trial.should_prune() is False   # no pruner installed
            return 0.5

        study.optimize(objective, n_trials=1)
        assert study.trials[0].intermediate == {1: 0.5}

    def test_median_pruner_kills_below_median_trial(self):
        """Two strong completed trials set the bar; a trial reporting
        below their median at the same step is pruned mid-run."""
        study = Study(direction="maximize",
                      pruner=MedianPruner(n_warmup_trials=2,
                                          n_warmup_steps=1))
        curves = iter([
            [0.5, 0.7, 0.9],     # completes
            [0.5, 0.8, 0.9],     # completes
            [0.5, 0.2, 0.9],     # below median 0.75 at step 2 -> pruned
            [0.5, 0.9, 0.95],    # above median, completes
        ])

        def objective(trial):
            trial.suggest_int("k", 1, 9)
            for step, value in enumerate(next(curves), start=1):
                trial.report(value, step=step)
                if trial.should_prune():
                    raise TrialPruned
            return value

        study.optimize(objective, n_trials=4)
        states = [t.state for t in study.trials]
        assert states == ["COMPLETE", "COMPLETE", "PRUNED", "COMPLETE"]
        pruned = study.trials[2]
        assert pruned.value is None
        assert max(pruned.intermediate) == 2       # died at step 2
        assert study.best_value == pytest.approx(0.95)

    def test_warmup_trials_are_never_pruned(self):
        study = Study(pruner=MedianPruner(n_warmup_trials=3,
                                          n_warmup_steps=0))

        def objective(trial):
            trial.report(0.01, step=5)             # terrible, but warmup
            if trial.should_prune():
                raise TrialPruned
            return 0.01

        study.optimize(objective, n_trials=2)
        assert all(t.state == "COMPLETE" for t in study.trials)

    def test_minimize_direction_prunes_above_median(self):
        study = Study(direction="minimize",
                      pruner=MedianPruner(n_warmup_trials=2,
                                          n_warmup_steps=0))
        losses = iter([0.2, 0.3, 0.9])

        def objective(trial):
            loss = next(losses)
            trial.report(loss, step=1)
            if trial.should_prune():
                raise TrialPruned
            return loss

        study.optimize(objective, n_trials=3)
        assert [t.state for t in study.trials] == \
            ["COMPLETE", "COMPLETE", "PRUNED"]

    def test_pruner_validation(self):
        with pytest.raises(ValueError):
            MedianPruner(n_warmup_trials=0)


class TestEnginePruningCallback:
    def test_trials_prune_through_the_engine(self, corpus_c):
        """End to end: HPO trials train via Engine.fit with a
        TrialPruningCallback; a pruner-rejected configuration raises
        TrialPruned out of fit and the study records it as PRUNED."""
        from repro.core import build_model
        from repro.data import sample_pairs
        from repro.engine import Engine, TrainConfig

        train_pairs = sample_pairs(corpus_c, 12, np.random.default_rng(0))
        val_pairs = sample_pairs(corpus_c, 8, np.random.default_rng(1))

        class PruneEverythingAfterWarmup:
            def should_prune(self, study, trial):
                completed = [t for t in study.trials
                             if t.state == "COMPLETE"]
                return len(completed) >= 1 and bool(trial.intermediate)

        study = Study(direction="maximize",
                      pruner=PruneEverythingAfterWarmup())
        epochs_ran = []

        def objective(trial):
            trial.suggest_int("hidden", 8, 8)
            engine = Engine(build_model("gcn", embedding_dim=8,
                                        hidden_size=8, seed=0),
                            TrainConfig(epochs=3, batch_size=6))
            engine.add_callback(TrialPruningCallback(trial))
            engine.fit(train_pairs, val_pairs=val_pairs)
            epochs_ran.append(engine.state.epoch)
            return engine.evaluate_accuracy(val_pairs)

        study.optimize(objective, n_trials=2)
        assert [t.state for t in study.trials] == ["COMPLETE", "PRUNED"]
        assert epochs_ran == [3]                   # trial 2 died mid-fit
        assert study.trials[1].intermediate       # it did report first
