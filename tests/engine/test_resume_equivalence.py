"""The engine's acceptance bar: kill a run at epoch k, resume from its
checkpoint, and the finished run must be **bitwise identical** to an
uninterrupted one — weights, loss history, grad norms, and eval logits.
This forces optimizer moments and the shuffle RNG stream to be
first-class checkpoint state, for every encoder kind.
"""

import numpy as np
import pytest

from repro.core import ENCODER_KINDS, build_model
from repro.data import sample_pairs
from repro.engine import Callback, Checkpointing, Engine, TrainConfig
from repro.nn.tensor import no_grad
from repro.serve import load_checkpoint


class KillAfter(Callback):
    """Simulate a hard interrupt: raise out of fit() after epoch n."""

    class Killed(RuntimeError):
        pass

    def __init__(self, epoch: int):
        self.epoch = epoch

    def on_epoch_end(self, engine):
        if engine.state.epoch == self.epoch:
            raise self.Killed(f"killed at epoch {self.epoch}")


def _make_model(kind: str):
    return build_model(encoder_kind=kind, embedding_dim=8, hidden_size=8,
                       seed=2)


def _eval_logits(model, pairs):
    feats = [(model.featurizer(p.first.source),
              model.featurizer(p.second.source)) for p in pairs]
    with no_grad():
        return model.pair_logits(feats).data.copy()


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_kill_at_epoch_k_and_resume_is_bitwise_identical(
        kind, corpus_c, tmp_path):
    pairs = sample_pairs(corpus_c, 16, np.random.default_rng(3))
    config = TrainConfig(epochs=4, batch_size=8, learning_rate=8e-3, seed=9)

    # Uninterrupted reference run.
    straight = Engine(_make_model(kind), config)
    straight_history = straight.fit(pairs)

    # Interrupted run: checkpoint each epoch, die after epoch 2.
    ckpt = tmp_path / f"{kind}.npz"
    killed = Engine(_make_model(kind), config)
    killed.add_callback(Checkpointing(ckpt, every=1))
    killed.add_callback(KillAfter(2))
    with pytest.raises(KillAfter.Killed):
        killed.fit(pairs)

    # Resume from the epoch-2 checkpoint and finish the budget.
    resumed = Engine.from_checkpoint(ckpt)
    assert resumed.state.epoch == 2
    resumed_history = resumed.fit(pairs)

    # Bitwise: weights ...
    for (name_a, a), (name_b, b) in zip(
            straight.model.state_dict().items(),
            resumed.model.state_dict().items()):
        assert name_a == name_b
        assert np.array_equal(a, b), f"weight drift in {name_a}"
    # ... loss history and grad norms (exact float equality, not approx) ...
    assert resumed_history.losses == straight_history.losses
    assert resumed_history.grad_norms == straight_history.grad_norms
    # ... and eval logits on held-out-style pairs.
    probe = sample_pairs(corpus_c, 10, np.random.default_rng(17))
    np.testing.assert_array_equal(_eval_logits(straight.model, probe),
                                  _eval_logits(resumed.model, probe))


def test_resumed_optimizer_continues_not_restarts(corpus_c, tmp_path):
    """Adam's step counter must survive: a resume that silently reset the
    bias correction would still 'train' but diverge from the reference."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(1))
    config = TrainConfig(epochs=2, batch_size=6, seed=4)
    engine = Engine(_make_model("gcn"), config)
    engine.fit(pairs)
    steps = engine.state.step
    assert engine.optimizer._t == steps > 0
    ckpt = engine.save_checkpoint(tmp_path / "opt.npz")
    resumed = Engine.from_checkpoint(ckpt)
    assert resumed.optimizer._t == steps
    assert resumed.state.step == steps
    for m_a, m_b in zip(engine.optimizer._m, resumed.optimizer._m):
        np.testing.assert_array_equal(m_a, m_b)


def test_training_checkpoint_still_loads_for_inference(corpus_c, tmp_path):
    """A v2 training checkpoint is also a serving checkpoint: the
    training-only arrays are skipped and predictions match exactly."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(5))
    engine = Engine(_make_model("treelstm"),
                    TrainConfig(epochs=2, batch_size=6, seed=0))
    engine.fit(pairs)
    ckpt = engine.save_checkpoint(tmp_path / "v2.npz")
    served = load_checkpoint(ckpt)
    first = pairs[0].first.source
    second = pairs[0].second.source
    assert served.predict_probability(first, second) == \
        engine.model.predict_probability(first, second)


def test_resume_with_extended_epoch_budget(corpus_c, tmp_path):
    """Passing a config override to from_checkpoint extends the run."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(6))
    engine = Engine(_make_model("gcn"), TrainConfig(epochs=2, batch_size=6))
    engine.fit(pairs)
    ckpt = engine.save_checkpoint(tmp_path / "short.npz")
    longer = Engine.from_checkpoint(
        ckpt, config=TrainConfig(epochs=5, batch_size=6))
    history = longer.fit(pairs)
    assert len(history.losses) == 5
    assert longer.state.epoch == 5


class EpochCounter(Callback):
    """Stateful user callback: counts epochs across kill/resume."""

    state_key = "epoch_counter"

    def __init__(self):
        self.epochs_seen = 0

    def on_epoch_end(self, engine):
        self.epochs_seen += 1

    def state_dict(self):
        return {"epochs_seen": self.epochs_seen}

    def load_state_dict(self, state):
        self.epochs_seen = int(state["epochs_seen"])


def test_extra_callback_state_restored_through_from_checkpoint(
        corpus_c, tmp_path):
    """Caller-supplied (extra) callbacks passed at resume time must be
    installed before the state restore, so their checkpointed state
    comes back — the extension point the module advertises."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(2))
    engine = Engine(_make_model("gcn"), TrainConfig(epochs=2, batch_size=6))
    counter = EpochCounter()
    engine.add_callback(counter)
    engine.fit(pairs)
    assert counter.epochs_seen == 2
    ckpt = engine.save_checkpoint(tmp_path / "cb.npz")

    fresh = EpochCounter()
    resumed = Engine.from_checkpoint(
        ckpt, config=TrainConfig(epochs=4, batch_size=6),
        extra_callbacks=[fresh])
    resumed.fit(pairs)
    assert resumed.state.epoch == 4
    assert fresh.epochs_seen == 4          # 2 restored + 2 resumed


def test_early_stopping_state_survives_resume(corpus_c, tmp_path):
    """Best-so-far and remaining patience ride inside the checkpoint."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(7))
    val = sample_pairs(corpus_c, 8, np.random.default_rng(8))
    config = TrainConfig(epochs=3, batch_size=6, early_stop_patience=2)
    engine = Engine(_make_model("gcn"), config)
    engine.fit(pairs, val_pairs=val)
    stopper = next(c for c in engine.callbacks
                   if c.state_key == "early_stopping")
    ckpt = engine.save_checkpoint(tmp_path / "es.npz")
    resumed = Engine.from_checkpoint(ckpt)
    restored = next(c for c in resumed.callbacks
                    if c.state_key == "early_stopping")
    assert restored.best == stopper.best
    assert restored.left == stopper.left

    # A larger patience override at resume keeps the strike history but
    # gets its extra headroom (the override wins for the budget knob).
    wider = Engine.from_checkpoint(
        ckpt, config=TrainConfig(epochs=10, batch_size=6,
                                 early_stop_patience=10))
    widened = next(c for c in wider.callbacks
                   if c.state_key == "early_stopping")
    strikes = stopper.patience - stopper.left
    assert widened.patience == 10
    assert widened.left == 10 - strikes


def test_ndarray_callback_state_is_checkpointable(corpus_c, tmp_path):
    """A callback state_dict holding ndarrays (a metric buffer, say)
    must serialize instead of crashing the checkpoint write."""
    class BufferCallback(Callback):
        state_key = "buffer"

        def __init__(self):
            self.running = np.zeros(3)

        def state_dict(self):
            return {"running": self.running}

        def load_state_dict(self, state):
            self.running = np.asarray(state["running"], dtype=float)

    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(9))
    engine = Engine(_make_model("gcn"), TrainConfig(epochs=1, batch_size=6))
    buffer = BufferCallback()
    buffer.running[:] = (1.5, 2.5, 3.5)
    engine.add_callback(buffer)
    engine.fit(pairs)
    ckpt = engine.save_checkpoint(tmp_path / "buf.npz")

    fresh = BufferCallback()
    Engine.from_checkpoint(ckpt, extra_callbacks=[fresh])
    np.testing.assert_array_equal(fresh.running, [1.5, 2.5, 3.5])
