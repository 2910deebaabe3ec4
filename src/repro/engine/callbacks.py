"""Composable training callbacks for :class:`repro.engine.Engine`.

Each hook receives the engine; everything interesting lives on
``engine.state`` (an :class:`~repro.engine.loop.EngineState`) and
``engine.config``. Hooks fire in callback-list order, which matters for
stateful interactions: the standard ordering is *metrics consumers*
(grad-norm logging), then *control flow* (early stopping, pruning), then
*side effects* (checkpointing, progress printing) — so a checkpoint
written at epoch end already contains the early-stopper's updated
patience counters, and the progress line can suppress itself on the
stopping epoch exactly as the historical inlined loop did.

Callbacks that carry state across epochs implement ``state_dict`` /
``load_state_dict`` and set a unique ``state_key``; the engine folds
those payloads into its training checkpoints so a resumed run restores
them (e.g. early-stopping's best-so-far and remaining patience).
"""

from __future__ import annotations

__all__ = ["Callback", "GradNormLogging", "EarlyStopping",
           "ProgressLogger", "Checkpointing", "standard_callbacks"]


class Callback:
    """Base class: every hook is a no-op; override what you need.

    ``state_key`` (a unique string) opts a callback into checkpoint
    persistence via ``state_dict``/``load_state_dict``. ``reset`` is
    called when a fresh (non-resumed) ``fit`` starts.
    """

    state_key: str | None = None

    def on_fit_start(self, engine) -> None:
        pass

    def on_epoch_start(self, engine) -> None:
        pass

    def on_batch_end(self, engine) -> None:
        pass

    def on_epoch_end(self, engine) -> None:
        pass

    def on_checkpoint(self, engine, path) -> None:
        pass

    def on_fit_end(self, engine) -> None:
        pass

    def reset(self) -> None:
        pass

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


class GradNormLogging(Callback):
    """Record each batch's pre-clip gradient norm into the history.

    The paper cites exploding gradients as motivation for the LSTM
    family; trainers have always logged the global norm per step, and
    this callback keeps that series in ``history.grad_norms``.
    """

    def on_batch_end(self, engine) -> None:
        engine.state.history.grad_norms.append(engine.state.last_grad_norm)


class EarlyStopping(Callback):
    """Stop after ``patience`` epochs without a validation improvement.

    Inactive on epochs with no validation data (``val_accuracy`` is
    ``None``): early stopping only applies when ``fit`` is given
    ``val_pairs``.
    """

    state_key = "early_stopping"

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best = -1.0
        self.left = patience

    def reset(self) -> None:
        self.best = -1.0
        self.left = self.patience

    def on_epoch_end(self, engine) -> None:
        accuracy = engine.state.val_accuracy
        if accuracy is None:
            return
        if accuracy > self.best + 1e-9:
            self.best = accuracy
            self.left = self.patience
        else:
            self.left -= 1
            if self.left <= 0:
                engine.state.history.stopped_early = True
                engine.state.stop_requested = True

    def state_dict(self) -> dict:
        return {"best": self.best, "left": self.left,
                "patience": self.patience}

    def load_state_dict(self, state: dict) -> None:
        self.best = float(state["best"])
        # The checkpoint's *strike history* (epochs without improvement)
        # is what carries over; the patience budget itself belongs to
        # the live config — a resume with a larger patience override
        # must get its extra headroom, not the stored counter.
        stored_patience = int(state.get("patience", self.patience))
        if stored_patience == self.patience:
            self.left = int(state["left"])     # exact (bitwise) restore
        else:
            strikes = stored_patience - int(state["left"])
            self.left = max(1, self.patience - strikes)


class ProgressLogger(Callback):
    """One line per epoch (suppressed on the early-stopping epoch, like
    the historical verbose loop which ``break``-ed before printing)."""

    def on_epoch_end(self, engine) -> None:  # pragma: no cover - logging only
        state = engine.state
        if state.stop_requested:
            return
        msg = (f"epoch {state.epoch}/{engine.config.epochs} "
               f"loss={state.history.losses[-1]:.4f}")
        if state.val_accuracy is not None:
            msg += f" val_acc={state.history.val_accuracies[-1]:.3f}"
        print(msg)  # archlint: allow-print (the progress line IS the feature)


class Checkpointing(Callback):
    """Write a resumable training checkpoint every ``every`` epochs.

    The same path is overwritten each time (a checkpoint is a resume
    point, not an archive); a final checkpoint is always written when
    the run ends, so ``path`` doubles as the run's output model. A
    caller that performs its own end-of-run save to the same path (the
    CLI does, to stamp the evaluation into ``extra``) passes
    ``final_write=False`` to skip the redundant fit-end write. Install
    *after* control-flow callbacks (the standard helpers do) so the
    saved state includes their updated counters.
    """

    def __init__(self, path, every: int = 1, extra: dict | None = None,
                 final_write: bool = True):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = path
        self.every = every
        self.extra = extra
        self.final_write = final_write
        self._last_epoch_written = -1

    def reset(self) -> None:
        # a fresh fit() on the same engine must checkpoint again even if
        # the previous run ended on the same epoch number
        self._last_epoch_written = -1

    def _write(self, engine) -> None:
        engine.save_checkpoint(self.path, extra=self.extra)
        self._last_epoch_written = engine.state.epoch

    def on_epoch_end(self, engine) -> None:
        if engine.state.epoch % self.every == 0 or engine.state.stop_requested:
            self._write(engine)

    def on_fit_end(self, engine) -> None:
        # final state always captured — but not twice, when the last
        # epoch already wrote it (or the caller writes its own final)
        if self.final_write and engine.state.epoch != self._last_epoch_written:
            self._write(engine)


def standard_callbacks(config) -> list[Callback]:
    """The default stack ``Engine`` installs when given no callbacks:
    grad-norm logging, early stopping when the config enables it, and a
    progress line when verbose."""
    callbacks: list[Callback] = [GradNormLogging()]
    if config.early_stop_patience > 0:
        callbacks.append(EarlyStopping(config.early_stop_patience))
    if config.verbose:
        callbacks.append(ProgressLogger())
    return callbacks
