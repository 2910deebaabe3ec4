"""`MetricsCallback`: training telemetry on the obs registry.

Records, per epoch: mean loss, last grad-norm, validation accuracy
(when present), buffer-pool occupancy from the active kernel backend,
and a step-latency histogram — all labelled with the backend name and
dtype so a numpy64 run and a cnative run produce distinguishable series.

Two invariants the engine tests hold this callback to:

* **read-only** — every hook only *reads* ``engine.state`` and the
  backend's pool stats. It never touches the model, optimizer, or the
  engine's shuffle RNG, so a run with the callback attached produces
  bitwise-identical weights/history to a run without it.
* **resume-exact** — the registry snapshot and epoch records persist
  through the existing ``state_key`` mechanism into format-v2
  checkpoints (JSON floats round-trip exactly via ``repr``), so a
  killed-and-resumed run carries its metric history forward instead of
  restarting the series.
"""

from __future__ import annotations

import time

from ..engine.callbacks import Callback
from .metrics import LATENCY_BUCKETS_S, MetricsRegistry

__all__ = ["MetricsCallback"]


class MetricsCallback(Callback):
    """Engine telemetry on a :class:`~repro.obs.metrics.MetricsRegistry`.

    Parameters
    ----------
    registry:
        Share an existing registry (e.g. one already exposed over a
        scrape endpoint); a private one is created when omitted.
    step_buckets:
        Histogram bounds (seconds) for step latency; the default
        latency buckets suit both sub-millisecond cnative steps and
        multi-second full-corpus epochs.
    """

    state_key = "metrics"

    def __init__(self, registry: MetricsRegistry | None = None,
                 step_buckets=LATENCY_BUCKETS_S):
        self.registry = registry or MetricsRegistry()
        self.records: list[dict] = []
        labels = ("backend", "dtype")
        r = self.registry
        self._epochs = r.counter(
            "repro_train_epochs_total", "completed training epochs",
            labels)
        self._steps = r.counter(
            "repro_train_steps_total", "completed optimizer steps",
            labels)
        self._loss = r.gauge(
            "repro_train_epoch_loss", "mean training loss, last epoch",
            labels, agg="last")
        self._grad_norm = r.gauge(
            "repro_train_grad_norm", "pre-clip gradient norm, last step",
            labels, agg="last")
        self._val_acc = r.gauge(
            "repro_train_val_accuracy",
            "validation accuracy, last evaluated epoch", labels,
            agg="last")
        self._step_latency = r.histogram(
            "repro_train_step_latency_seconds",
            "wall time per optimizer step", labels,
            buckets=step_buckets)
        self._pool = r.gauge(
            "repro_train_pool", "backend buffer-pool stats at epoch end",
            labels + ("stat",), agg="last")
        self._labels = None
        self._fallback_timer = None

    # -- helpers -------------------------------------------------------
    def _backend_labels(self):
        if self._labels is None:
            from ..nn import backend as nn_backend
            info = nn_backend.describe()
            self._labels = (str(info.get("name", "?")),
                            str(info.get("dtype", "?")))
        return self._labels

    # -- hooks (read-only over engine state) ---------------------------
    def reset(self) -> None:
        self.records = []

    def on_fit_start(self, engine) -> None:
        self._labels = None          # backend may have changed between fits
        self._backend_labels()

    def on_epoch_start(self, engine) -> None:
        self._fallback_timer = None

    def on_batch_end(self, engine) -> None:
        labels = self._backend_labels()
        self._steps.labels(*labels).inc()
        state = engine.state
        step_s = getattr(state, "last_step_s", None)
        if step_s is None:
            # engine without step timing: fall back to batch-to-batch
            # wall time measured here (first batch of an epoch skipped)
            now = time.perf_counter()
            if self._fallback_timer is not None:
                step_s = now - self._fallback_timer
            self._fallback_timer = now
        if step_s is not None:
            self._step_latency.labels(*labels).observe(step_s)
        grad_norm = state.last_grad_norm
        if grad_norm == grad_norm:                 # skip NaN
            self._grad_norm.labels(*labels).set(grad_norm)

    def on_epoch_end(self, engine) -> None:
        labels = self._backend_labels()
        state = engine.state
        self._epochs.labels(*labels).inc()
        self._loss.labels(*labels).set(state.epoch_loss)
        record = {"epoch": state.epoch, "loss": state.epoch_loss,
                  "grad_norm": state.last_grad_norm}
        if state.val_accuracy is not None:
            self._val_acc.labels(*labels).set(state.val_accuracy)
            record["val_accuracy"] = state.val_accuracy
        from ..nn import backend as nn_backend
        pool_stats = nn_backend.active().pool.stats()
        for stat, value in pool_stats.items():
            self._pool.labels(*labels, str(stat)).set(value)
        record["pool"] = dict(pool_stats)
        self.records.append(record)

    # -- checkpoint persistence (state_key mechanism) ------------------
    def state_dict(self) -> dict:
        return {"registry": self.registry.snapshot(),
                "records": list(self.records)}

    def load_state_dict(self, state: dict) -> None:
        self.registry.restore(state.get("registry", {}))
        self.records = [dict(r) for r in state.get("records", [])]

    # -- convenience ---------------------------------------------------
    def snapshot(self) -> dict:
        return self.registry.snapshot()
