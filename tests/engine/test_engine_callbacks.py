"""Engine behaviour and the callback protocol (hook order, state,
re-fit semantics, checkpoint events)."""

import numpy as np
import pytest

from repro.core import build_model
from repro.data import sample_pairs
from repro.engine import (
    Callback, Checkpointing, EarlyStopping, Engine, GradNormLogging,
    TrainConfig, standard_callbacks,
)


class Recorder(Callback):
    """Log every hook invocation with the epoch/step it observed."""

    def __init__(self):
        self.events = []

    def on_fit_start(self, engine):
        self.events.append(("fit_start", engine.state.epoch))

    def on_epoch_start(self, engine):
        self.events.append(("epoch_start", engine.state.epoch))

    def on_batch_end(self, engine):
        self.events.append(("batch_end", engine.state.step))

    def on_epoch_end(self, engine):
        self.events.append(("epoch_end", engine.state.epoch))

    def on_checkpoint(self, engine, path):
        self.events.append(("checkpoint", engine.state.epoch))

    def on_fit_end(self, engine):
        self.events.append(("fit_end", engine.state.epoch))


@pytest.fixture(scope="module")
def small_pairs(corpus_c):
    return sample_pairs(corpus_c, 12, np.random.default_rng(0))


def _engine(config=None, callbacks=None):
    model = build_model(encoder_kind="gcn", embedding_dim=8, hidden_size=8,
                        seed=1)
    return Engine(model, config or TrainConfig(epochs=2, batch_size=6),
                  callbacks=callbacks)


class TestCallbackProtocol:
    def test_hook_order_and_counts(self, small_pairs):
        recorder = Recorder()
        engine = _engine()
        engine.add_callback(recorder)
        engine.fit(small_pairs)
        kinds = [kind for kind, _ in recorder.events]
        assert kinds[0] == "fit_start"
        assert kinds[-1] == "fit_end"
        assert kinds.count("epoch_start") == kinds.count("epoch_end") == 2
        # 12 pairs at batch 6 = 2 steps per epoch
        assert kinds.count("batch_end") == 4
        # epoch_start always precedes its batch_end events
        assert kinds.index("epoch_start") < kinds.index("batch_end")

    def test_callback_can_stop_the_run(self, small_pairs):
        class StopAfterOne(Callback):
            def on_epoch_end(self, engine):
                engine.state.stop_requested = True

        engine = _engine(TrainConfig(epochs=10, batch_size=6))
        engine.add_callback(StopAfterOne())
        history = engine.fit(small_pairs)
        assert len(history.losses) == 1

    def test_grad_norms_recorded_by_callback(self, small_pairs):
        engine = _engine()
        history = engine.fit(small_pairs)
        assert len(history.grad_norms) == 4      # 2 epochs x 2 steps
        assert all(np.isfinite(history.grad_norms))
        # with an explicit empty callback list nothing records norms
        silent = _engine(callbacks=[])
        history = silent.fit(small_pairs)
        assert history.grad_norms == []

    def test_standard_callbacks_follow_config(self):
        plain = standard_callbacks(TrainConfig())
        assert [type(c) for c in plain] == [GradNormLogging]
        stopping = standard_callbacks(TrainConfig(early_stop_patience=3))
        assert any(isinstance(c, EarlyStopping) for c in stopping)


class TestRefitSemantics:
    def test_second_fit_restarts_fresh(self, small_pairs):
        """Each fit() is a full fresh run (same shuffle stream, fresh
        history), not a continuation."""
        engine = _engine()
        first = engine.fit(small_pairs)
        losses = list(first.losses)
        second = engine.fit(small_pairs)
        assert len(second.losses) == 2
        assert second.losses != losses  # warm Adam state trains further

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="no training pairs"):
            _engine().fit([])


class TestCheckpointing:
    def test_periodic_checkpoints_and_events(self, small_pairs, tmp_path):
        recorder = Recorder()
        path = tmp_path / "ckpt.npz"
        engine = _engine(TrainConfig(epochs=4, batch_size=6))
        engine.add_callback(Checkpointing(path, every=2))
        engine.add_callback(recorder)
        engine.fit(small_pairs)
        assert path.exists()
        checkpoints = [epoch for kind, epoch in recorder.events
                       if kind == "checkpoint"]
        # epochs 2 and 4 (every=2); fit-end skips its write because the
        # final epoch just wrote one
        assert checkpoints == [2, 4]

    def test_fit_end_writes_when_final_epoch_unaligned(self, small_pairs,
                                                       tmp_path):
        recorder = Recorder()
        engine = _engine(TrainConfig(epochs=4, batch_size=6))
        engine.add_callback(Checkpointing(tmp_path / "c.npz", every=3))
        engine.add_callback(recorder)
        engine.fit(small_pairs)
        checkpoints = [epoch for kind, epoch in recorder.events
                       if kind == "checkpoint"]
        assert checkpoints == [3, 4]     # epoch 3 (every) + fit-end tail

    def test_refit_writes_final_checkpoint_again(self, small_pairs,
                                                 tmp_path):
        """A second fit() on the same engine ends at the same epoch
        number; the dedup of the fit-end write must reset with the run,
        or the new result would silently never hit disk."""
        path = tmp_path / "refit.npz"
        engine = _engine(TrainConfig(epochs=2, batch_size=6))
        engine.add_callback(Checkpointing(path, every=10))
        engine.fit(small_pairs)
        first = path.read_bytes()
        engine.fit(small_pairs)          # warm optimizer -> new weights
        assert path.read_bytes() != first

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError, match=">= 1"):
            Checkpointing(tmp_path / "x.npz", every=0)
