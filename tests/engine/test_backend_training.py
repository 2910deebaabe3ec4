"""Backend-facing training guarantees: gradient accumulation matches
the fused step, resume stays bitwise *within* each backend, and
checkpoints refuse a silent cross-dtype load."""

import numpy as np
import pytest

from repro.core import build_model
from repro.data import sample_pairs
from repro.engine import Engine, TrainConfig
from repro.nn import backend as nn_backend
from repro.serve import load_checkpoint, save_checkpoint
from repro.serve.checkpoint import (CheckpointDtypeError,
                                    load_training_checkpoint,
                                    read_checkpoint_meta)

from ..helpers import backend_or_skip

BACKENDS = ["numpy64", "numpy32", "cnative"]


def _model(kind="gcn", seed=2):
    return build_model(encoder_kind=kind, embedding_dim=8, hidden_size=8,
                       seed=seed)


class TestAccumSteps:
    def _grads(self, corpus, accum: int):
        pairs = sample_pairs(corpus, 12, np.random.default_rng(3))
        engine = Engine(_model(), TrainConfig(epochs=1, batch_size=12,
                                              seed=7, accum_steps=accum))
        batch = engine._featurize_pairs(pairs)
        loss = engine._accumulate_gradients(batch)
        return loss, [p.grad.copy() for p in engine.optimizer.parameters]

    def test_accumulated_grads_match_fused(self, corpus_c):
        loss1, fused = self._grads(corpus_c, accum=1)
        loss3, chunked = self._grads(corpus_c, accum=3)
        # Chunk losses are weighted by len(chunk)/n, so the sum is the
        # batch mean up to summation order — same for the gradients.
        # The bar scales with the active dtype (fp32 reorders round off
        # at the documented tolerance).
        fp64 = nn_backend.default_dtype() == np.float64
        assert loss3 == pytest.approx(loss1, abs=1e-12 if fp64 else 1e-5)
        atol, rtol = (1e-10, 1e-9) if fp64 else (3e-4, 1e-3)
        for g_fused, g_chunked in zip(fused, chunked):
            np.testing.assert_allclose(g_chunked, g_fused,
                                       atol=atol, rtol=rtol)

    def test_accum_one_is_bitwise_baseline(self, corpus_c):
        # accum_steps=1 must be the exact historical step (the pooled
        # buffers start zeroed, so values cannot differ).
        _, a = self._grads(corpus_c, accum=1)
        _, b = self._grads(corpus_c, accum=1)
        for g1, g2 in zip(a, b):
            np.testing.assert_array_equal(g1, g2)

    def test_full_fit_equivalent_under_accumulation(self, corpus_c):
        pairs = sample_pairs(corpus_c, 12, np.random.default_rng(5))

        def run(accum):
            engine = Engine(_model(), TrainConfig(epochs=2, batch_size=6,
                                                  seed=1, accum_steps=accum))
            engine.fit(pairs)
            return engine.model.state_dict()

        ref, acc = run(1), run(2)
        for (name_a, a), (name_b, b) in zip(ref.items(), acc.items()):
            assert name_a == name_b
            np.testing.assert_allclose(a, b, atol=1e-7, rtol=1e-6)


class TestResumePerBackend:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_resume_is_bitwise_within_backend(self, name, corpus_c, tmp_path):
        with backend_or_skip(name):
            pairs = sample_pairs(corpus_c, 10, np.random.default_rng(4))

            straight = Engine(_model(seed=3),
                              TrainConfig(epochs=3, batch_size=5, seed=11))
            straight.fit(pairs)

            ckpt = tmp_path / f"{name}.npz"
            half = Engine(_model(seed=3),
                          TrainConfig(epochs=2, batch_size=5, seed=11))
            half.fit(pairs)
            half.save_checkpoint(ckpt)
            resumed = Engine.from_checkpoint(
                ckpt, config=TrainConfig(epochs=3, batch_size=5, seed=11))
            resumed.fit(pairs)

            for (key_a, a), (key_b, b) in zip(
                    straight.model.state_dict().items(),
                    resumed.model.state_dict().items()):
                assert key_a == key_b
                assert a.dtype == nn_backend.default_dtype()
                assert np.array_equal(a, b), f"weight drift in {key_a}"


class TestCheckpointDtype:
    def test_meta_records_dtype_and_backend(self, corpus_c, tmp_path):
        with nn_backend.use("numpy32"):
            path = save_checkpoint(_model(), tmp_path / "m32.npz")
            meta = read_checkpoint_meta(path)
        assert meta["dtype"] == "float32"
        assert meta["backend"] == "numpy32"

    def test_default_backend_records_float64(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            path = save_checkpoint(_model(), tmp_path / "m64.npz")
        assert read_checkpoint_meta(path)["dtype"] == "float64"

    def test_cross_dtype_load_refuses_without_cast(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            path = save_checkpoint(_model(), tmp_path / "m64.npz")
        with nn_backend.use("numpy32"):
            with pytest.raises(CheckpointDtypeError) as err:
                load_checkpoint(path)
        assert err.value.stored == "float64"
        assert err.value.active == "float32"
        assert "--cast" in str(err.value)

    def test_cast_converts_weights_to_active_dtype(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            model = _model()
            path = save_checkpoint(model, tmp_path / "m64.npz")
        with nn_backend.use("numpy32"):
            loaded = load_checkpoint(path, cast=True)
            for key, value in loaded.state_dict().items():
                assert value.dtype == np.float32, key
                np.testing.assert_allclose(
                    value, model.state_dict()[key].astype(np.float32))

    def test_training_checkpoint_gated_too(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            pairs = sample_pairs(corpus_c, 8, np.random.default_rng(6))
            engine = Engine(_model(), TrainConfig(epochs=1, batch_size=4))
            engine.fit(pairs)
            ckpt = engine.save_checkpoint(tmp_path / "train64.npz")
        with nn_backend.use("numpy32"):
            with pytest.raises(CheckpointDtypeError):
                load_training_checkpoint(ckpt)
            resumed = Engine.from_checkpoint(ckpt, cast=True)
            for p in resumed.optimizer.parameters:
                assert p.data.dtype == np.float32

    def test_same_dtype_load_needs_no_cast(self, corpus_c, tmp_path):
        with nn_backend.use("numpy32"):
            path = save_checkpoint(_model(), tmp_path / "m32.npz")
            loaded = load_checkpoint(path)
            assert all(v.dtype == np.float32
                       for v in loaded.state_dict().values())

    def test_pre_backend_checkpoints_default_to_float64(self, corpus_c,
                                                        tmp_path):
        # A checkpoint written before the dtype field existed loads
        # unchanged on the default backend.
        with nn_backend.use("numpy64"):
            path = save_checkpoint(_model(), tmp_path / "legacy.npz")
        import json

        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(data["__meta__"].tobytes().decode("utf-8"))
        meta.pop("dtype")
        meta.pop("backend")
        data["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        legacy = tmp_path / "legacy_stripped.npz"
        np.savez(legacy, **data)
        with nn_backend.use("numpy64"):
            loaded = load_checkpoint(legacy)
        assert all(v.dtype == np.float64
                   for v in loaded.state_dict().values())
