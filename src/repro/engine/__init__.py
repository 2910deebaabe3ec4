"""repro.engine — the single resumable, instrumented training loop.

Every training flow in the repository (``run_experiment``, the
paper-figure drivers, HPO trials, ``repro train``) builds one
:class:`Engine` and calls ``fit``: an event-driven epoch/step loop
whose optional behaviours — metric logging, early stopping, periodic
checkpointing, trial pruning — are
:class:`~repro.engine.callbacks.Callback` objects instead of inlined
code.

The engine checkpoints *complete* training state (weights + encoder
config + vocab + optimizer moments + RNG stream + counters + history;
checkpoint format v2, :mod:`repro.serve.checkpoint`), so a run killed at
epoch k and resumed from its checkpoint finishes **bitwise identical**
to the uninterrupted run — and every checkpoint still loads for plain
inference/serving.

Writing a custom callback is three lines — subclass, override a hook,
pass it in::

    from repro.engine import Callback, Engine, TrainConfig

    class LossPlateauWarning(Callback):
        '''Warn when the mean epoch loss stops moving.'''

        def on_epoch_end(self, engine):
            losses = engine.state.history.losses
            if len(losses) >= 2 and abs(losses[-1] - losses[-2]) < 1e-4:
                print(f"epoch {engine.state.epoch}: loss plateaued "
                      f"at {losses[-1]:.4f}")

    engine = Engine(model, TrainConfig(epochs=12))
    engine.add_callback(LossPlateauWarning())
    history = engine.fit(train_pairs, val_pairs=val_pairs)

Hooks: ``on_fit_start``, ``on_epoch_start``, ``on_batch_end``,
``on_epoch_end``, ``on_checkpoint(engine, path)``, ``on_fit_end`` — all
read ``engine.state`` (losses, val accuracy, grad norms, epoch/step
counters) and may set ``engine.state.stop_requested``. A callback with a
``state_key`` plus ``state_dict``/``load_state_dict`` persists itself
inside training checkpoints (that is how early-stopping patience
survives a resume).
"""

from .callbacks import (
    Callback, Checkpointing, EarlyStopping, GradNormLogging, ProgressLogger,
    standard_callbacks,
)
from .loop import Engine, EngineState, TrainConfig, TrainHistory

__all__ = [
    "Engine", "EngineState", "TrainConfig", "TrainHistory",
    "Callback", "GradNormLogging", "EarlyStopping", "ProgressLogger",
    "Checkpointing", "standard_callbacks",
]
