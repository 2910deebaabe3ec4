"""The one training loop: ``Engine.fit`` drives every training run.

Every training run (``run_experiment``, the Fig. 5 ablations, the HPO
objective, ``repro train``) builds an :class:`Engine` and calls
``fit``: one loop that owns the optimizer, the shuffle RNG, and the
metric history, and that emits callback events
(:mod:`repro.engine.callbacks`) for optional behaviour.

The loop is **resumable**: :meth:`Engine.save_checkpoint` writes a
format-v2 checkpoint (weights + encoder config + vocab + optimizer
moments + RNG bit-generator state + epoch/step counters + history, see
:mod:`repro.serve.checkpoint`) and :meth:`Engine.from_checkpoint`
rebuilds an engine that continues **bitwise identically**: the shuffle
RNG resumes mid-stream, Adam's moments and bias-correction step pick up
where they stopped, and the recorded history keeps growing in place.
Killing a run at epoch k and resuming its checkpoint therefore produces
the same final weights, history, and logits as the uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..data.batching import iter_index_batches
from ..nn import backend as nn_backend
from ..nn.loss import bce_with_logits
from ..nn.optim import Adam, Optimizer, clip_grad_norm
from ..nn.tensor import Tensor, no_grad

__all__ = ["TrainConfig", "TrainHistory", "EngineState", "Engine"]


@dataclass
class TrainConfig:
    epochs: int = 12
    batch_size: int = 16
    learning_rate: float = 5e-3
    grad_clip: float = 5.0
    seed: int = 0
    early_stop_patience: int = 0   # 0 disables early stopping
    verbose: bool = False
    eval_batch_size: int = 64      # forest size for bulk inference
    # Gradient accumulation: each batch's loss is computed over
    # accum_steps near-equal sub-forests whose (loss-weighted) gradients
    # sum before the single optimizer step — the optimizer sees the same
    # objective as one fused batch, but peak graph memory shrinks by
    # ~accum_steps for forests too large to encode fused. 1 = fused
    # (bitwise-identical to the historical loop).
    accum_steps: int = 1


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    stopped_early: bool = False

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "TrainHistory":
        return cls(losses=[float(x) for x in payload.get("losses", [])],
                   val_accuracies=[float(x) for x in
                                   payload.get("val_accuracies", [])],
                   grad_norms=[float(x) for x in
                               payload.get("grad_norms", [])],
                   stopped_early=bool(payload.get("stopped_early", False)))


@dataclass
class EngineState:
    """Mutable run state, visible to callbacks as ``engine.state``.

    ``epoch``/``step`` count *completed* epochs and optimizer steps.
    The ``last_*`` / ``val_accuracy`` fields are the per-event values a
    callback reads inside its hook (``val_accuracy`` is ``None`` on
    epochs without validation data).
    """

    epoch: int = 0
    step: int = 0
    history: TrainHistory = field(default_factory=TrainHistory)
    stop_requested: bool = False
    batch_index: int = -1
    last_loss: float = float("nan")
    last_grad_norm: float = float("nan")
    # wall time of the last optimizer step (forward+backward+clip+step),
    # read by telemetry callbacks; purely observational, never fed back
    # into training
    last_step_s: float = 0.0
    epoch_loss: float = float("nan")
    val_accuracy: float | None = None


def _jsonable(value):
    """Recursively convert numpy scalars/arrays so json.dumps round-trips
    (user callback state_dicts may hand back ndarrays)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class Engine:
    """Event-driven training loop over a :class:`~repro.core.ComparativeModel`.

    Parameters
    ----------
    model:
        Anything with ``featurizer``, ``pair_logits`` and ``parameters()``
        (in practice a ``ComparativeModel``).
    config:
        :class:`TrainConfig`; a default one is used when omitted.
    optimizer:
        Defaults to Adam at ``config.learning_rate`` (the setup every
        experiment in the paper uses).
    callbacks:
        Iterable of :class:`~repro.engine.callbacks.Callback`. ``None``
        installs the standard set derived from the config (grad-norm
        logging, early stopping when ``early_stop_patience > 0``, a
        progress line when ``verbose``); pass an explicit list — even an
        empty one — to take full control.
    """

    def __init__(self, model, config: TrainConfig | None = None,
                 optimizer: Optimizer | None = None, callbacks=None):
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = optimizer or Adam(model.parameters(),
                                           lr=self.config.learning_rate)
        if callbacks is None:
            from .callbacks import standard_callbacks
            callbacks = standard_callbacks(self.config)
        self.callbacks = list(callbacks)
        self.state = EngineState()
        self.rng = np.random.default_rng(self.config.seed)
        self._resumed = False

    # ------------------------------------------------------------------
    # callbacks
    # ------------------------------------------------------------------
    def add_callback(self, callback) -> "Engine":
        """Append ``callback`` (fires after the already-installed ones)."""
        self.callbacks.append(callback)
        return self

    def _emit(self, hook: str, *args) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(self, *args)

    # ------------------------------------------------------------------
    # featurization and the per-batch objective
    # ------------------------------------------------------------------
    def _featurize_pairs(self, pairs):
        featurize = self.model.featurizer
        return [(featurize(p.first.source), featurize(p.second.source),
                 p.label) for p in pairs]

    def _batch_loss(self, batch) -> Tensor:
        # One fused forest encode for the whole batch: a single
        # forward+backward graph instead of one per tree.
        logits = self.model.pair_logits([(fi, fj) for fi, fj, _ in batch])
        targets = np.array([label for _, _, label in batch], dtype=float)
        return bce_with_logits(logits, targets)

    def _release_param_grads(self) -> None:
        """Return parameter gradients to the backend pool and clear them.

        Equivalent to ``optimizer.zero_grad()`` (grads become ``None``)
        except the arrays are recycled: the next backward's
        ``_accumulate`` calls draw zeroed buffers from the pool instead
        of allocating, so steady-state training allocates no gradient
        memory at all.
        """
        pool = nn_backend.active()
        for p in self.optimizer.parameters:
            if p.grad is not None:
                pool.release(p.grad)
                p.grad = None

    def _accumulate_gradients(self, batch) -> float:
        """Backward the batch objective into parameter grads; return the
        batch loss.

        With ``accum_steps == 1`` this is one fused forest encode +
        backward — bitwise-identical to the historical loop. With more,
        the batch splits into near-equal sub-forests whose losses are
        weighted by sub-batch fraction (so the summed gradient equals
        the fused batch's mean-loss gradient up to float addition
        order) and backwarded one at a time: peak graph memory drops by
        ~accum_steps. Intermediate gradient buffers are released to the
        pool as each backward sweep consumes them.
        """
        accum = max(1, int(getattr(self.config, "accum_steps", 1)))
        if accum <= 1 or len(batch) < 2:
            loss = self._batch_loss(batch)
            loss.backward(free_buffers=True)
            return loss.item()
        total = 0.0
        n = len(batch)
        bounds = np.linspace(0, n, min(accum, n) + 1).astype(int)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            chunk = batch[int(start):int(stop)]
            if not chunk:
                continue
            loss = self._batch_loss(chunk) * (len(chunk) / n)
            loss.backward(free_buffers=True)
            total += loss.item()
        return total

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _reset_run(self) -> None:
        """Fresh-run state: new history, reseeded shuffle RNG, callbacks
        back to their initial state. A resumed engine skips this once so
        ``fit`` continues from the checkpointed epoch."""
        self.state = EngineState()
        self.rng = np.random.default_rng(self.config.seed)
        for callback in self.callbacks:
            callback.reset()

    def fit(self, train_pairs, val_pairs=None) -> TrainHistory:
        """Train until ``config.epochs`` (or a callback requests a stop).

        Calling ``fit`` again restarts from scratch — except on an
        engine freshly restored by :meth:`from_checkpoint`, whose first
        ``fit`` resumes from the checkpointed epoch.
        """
        if not train_pairs:
            raise ValueError("no training pairs")
        if self._resumed:
            self._resumed = False
            self.state.stop_requested = False
        else:
            self._reset_run()
        cfg = self.config
        state = self.state
        prepared = self._featurize_pairs(train_pairs)
        self._emit("on_fit_start")
        for epoch in range(state.epoch, cfg.epochs):
            self._emit("on_epoch_start")
            epoch_loss = 0.0
            batches = 0
            for idx in iter_index_batches(len(prepared), cfg.batch_size,
                                          rng=self.rng, shuffle=True):
                batch = [prepared[int(k)] for k in idx]
                step_started = time.perf_counter()
                # Pool-aware zero_grad: last step's gradient arrays go
                # back to the backend's buffer pool (deferred to the
                # start of the *next* batch so on_batch_end callbacks can
                # still inspect them after the step).
                self._release_param_grads()
                batch_loss = self._accumulate_gradients(batch)
                norm = clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                self.optimizer.step()
                state.step += 1
                state.batch_index = batches
                state.last_loss = batch_loss
                state.last_grad_norm = norm
                state.last_step_s = time.perf_counter() - step_started
                epoch_loss += state.last_loss
                batches += 1
                self._emit("on_batch_end")
            state.epoch = epoch + 1
            state.epoch_loss = epoch_loss / max(1, batches)
            state.history.losses.append(state.epoch_loss)
            state.val_accuracy = None
            if val_pairs:
                state.val_accuracy = self.evaluate_accuracy(val_pairs)
                state.history.val_accuracies.append(state.val_accuracy)
            self._emit("on_epoch_end")
            if state.stop_requested:
                break
        self._emit("on_fit_end")
        return state.history

    # ------------------------------------------------------------------
    # inference / evaluation (forest-batched, no_grad)
    # ------------------------------------------------------------------
    def predict_probabilities(self, pairs, batch_size: int | None = None) -> np.ndarray:
        """P(label=1) for every pair, forest-batched under ``no_grad``."""
        if not pairs:
            return np.zeros(0)
        if batch_size is None:
            batch_size = self.config.eval_batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        featurize = self.model.featurizer
        probs = np.empty(len(pairs))
        with no_grad():
            for start in range(0, len(pairs), batch_size):
                chunk = pairs[start:start + batch_size]
                feats = [(featurize(p.first.source), featurize(p.second.source))
                         for p in chunk]
                logits = self.model.pair_logits(feats)
                probs[start:start + len(chunk)] = logits.sigmoid().data
        return probs

    def evaluate_accuracy(self, pairs, threshold: float = 0.5) -> float:
        from ..core.metrics import accuracy

        probs = self.predict_probabilities(pairs)
        labels = np.array([p.label for p in pairs])
        return accuracy(labels, probs, threshold=threshold)

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def training_state(self) -> dict:
        """JSON-serializable training state (weights and optimizer moment
        arrays travel separately, see ``repro.serve.checkpoint``)."""
        callback_states = {}
        for callback in self.callbacks:
            key = getattr(callback, "state_key", None)
            if key:
                payload = callback.state_dict()
                if payload:
                    callback_states[key] = _jsonable(payload)
        return {
            "config": asdict(self.config),
            "epoch": self.state.epoch,
            "step": self.state.step,
            "history": self.state.history.to_payload(),
            "rng": _jsonable(self.rng.bit_generator.state),
            "callbacks": callback_states,
        }

    def restore_training_state(self, payload: dict) -> None:
        """Adopt counters, history, RNG stream, and callback state from a
        checkpoint's ``training`` section. Leaves ``config`` and the
        optimizer alone (both are restored by the checkpoint loader)."""
        self.state = EngineState(
            epoch=int(payload["epoch"]), step=int(payload["step"]),
            history=TrainHistory.from_payload(payload["history"]))
        self.rng.bit_generator.state = payload["rng"]
        saved = payload.get("callbacks", {})
        for callback in self.callbacks:
            key = getattr(callback, "state_key", None)
            if key and key in saved:
                callback.load_state_dict(saved[key])
        self._resumed = True

    def save_checkpoint(self, path, extra: dict | None = None):
        """Write a resumable format-v2 checkpoint; fires ``on_checkpoint``.

        The file also loads as a plain inference checkpoint via
        :func:`repro.serve.checkpoint.load_checkpoint`."""
        from ..serve.checkpoint import save_training_checkpoint

        written = save_training_checkpoint(self, path, extra=extra)
        self._emit("on_checkpoint", written)
        return written

    @classmethod
    def from_checkpoint(cls, path, config: TrainConfig | None = None,
                        callbacks=None, extra_callbacks=(),
                        cast: bool = False) -> "Engine":
        """Rebuild a mid-run engine from a training checkpoint.

        ``config`` overrides the stored :class:`TrainConfig` (e.g. to
        extend ``epochs``); ``extra_callbacks`` are appended after the
        standard set (or after an explicit ``callbacks`` list). Every
        callback is installed *before* the state restore, so any whose
        ``state_key`` matches a stored entry — standard or extra —
        gets its checkpointed state back (early-stopping patience
        counters survive the restart). The first ``fit`` after this
        continues from the checkpointed epoch.

        ``cast=True`` permits resuming a checkpoint whose recorded dtype
        differs from the active backend's (weights and optimizer moments
        are converted); without it such a resume raises
        :class:`repro.serve.checkpoint.CheckpointDtypeError`, because a
        cross-dtype continuation cannot be bitwise-faithful.
        """
        from ..serve.checkpoint import load_training_checkpoint

        model, optimizer, training = load_training_checkpoint(path, cast=cast)
        stored = TrainConfig(**training["config"])
        if config is not None:
            # The override wins for every TrainConfig knob, including the
            # one the restored optimizer carries: without this, a
            # fine-tuning learning_rate override would be silently inert.
            optimizer.lr = config.learning_rate
        engine = cls(model, config=config or stored, optimizer=optimizer,
                     callbacks=callbacks)
        for callback in extra_callbacks:
            engine.add_callback(callback)
        engine.restore_training_state(training)
        return engine
