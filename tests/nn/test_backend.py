"""Unit tests for the pluggable ops backend: registry, dtype policy,
buffer pool, kernels, the fused ``addmm`` node, and the parametrized
float32 equivalence/gradcheck suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import backend as nn_backend
from repro.nn.backend import BufferPool
from repro.nn.tensor import Tensor
from repro.nn.treelstm import _segment_reduce, _segment_sum

from ..helpers import (backend_or_skip, backend_tolerance, check_gradients,
                       check_gradients_fp64_ref)

REPO_ROOT = Path(__file__).resolve().parents[2]

ALL_BACKENDS = ["numpy64", "numpy32", "cnative"]


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestRegistry:
    def test_default_is_numpy64(self):
        assert nn_backend.active().name in [b for b in ALL_BACKENDS]
        # Tests run without REPRO_BACKEND (or with it pointing at the
        # leg under test); whatever is active must self-describe.
        d = nn_backend.describe()
        assert set(d) == {"name", "dtype", "tolerance"}

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            nn_backend.get("cuda")

    def test_numpy_backends_always_available(self):
        names = nn_backend.available_backends()
        assert "numpy64" in names
        assert "numpy32" in names

    def test_use_is_scoped_and_restores(self):
        before = nn_backend.active().name
        with nn_backend.use("numpy32") as b:
            assert b.name == "numpy32"
            assert nn_backend.active() is b
            assert nn_backend.default_dtype() == np.float32
        assert nn_backend.active().name == before

    def test_use_restores_on_error(self):
        before = nn_backend.active()
        with pytest.raises(RuntimeError):
            with nn_backend.use("numpy32"):
                raise RuntimeError("boom")
        assert nn_backend.active() is before

    def test_set_backend_returns_instance(self):
        before = nn_backend.active().name
        try:
            b = nn_backend.set_backend("numpy32")
            assert nn_backend.active() is b
        finally:
            nn_backend.set_backend(before)

    def test_tolerances_documented(self):
        assert nn_backend.get("numpy64").tolerance == 1e-8
        assert nn_backend.get("numpy32").tolerance == 3e-4

    def _spawn(self, env_value: str, code: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, REPRO_BACKEND=env_value,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)

    def test_env_selects_backend_at_import(self):
        proc = self._spawn("numpy32", (
            "from repro.nn import backend; print(backend.active().name)"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy32"

    def test_env_unknown_backend_fails_loudly(self):
        proc = self._spawn("cuda", "import repro.nn.backend")
        assert proc.returncode != 0
        assert "REPRO_BACKEND" in proc.stderr


class TestBufferPool:
    def test_take_returns_zeroed_array(self):
        pool = BufferPool()
        buf = pool.take((3, 2), np.float64)
        np.testing.assert_array_equal(buf, 0.0)
        assert buf.dtype == np.float64

    def test_give_take_recycles_and_rezeroes(self):
        pool = BufferPool()
        buf = pool.take((4,), np.float64)
        buf.fill(7.5)
        pool.give(buf)
        again = pool.take((4,), np.float64)
        assert again is buf                 # recycled, not reallocated
        np.testing.assert_array_equal(again, 0.0)
        assert pool.hits == 1 and pool.recycled == 1

    def test_keys_are_shape_and_dtype(self):
        pool = BufferPool()
        pool.give(np.zeros((2, 2), dtype=np.float64))
        assert pool.take((2, 2), np.float32).dtype == np.float32
        assert pool.take((3, 2), np.float64).shape == (3, 2)
        assert pool.stats()["held_buffers"] == 1  # the f64 one, untouched

    def test_views_are_never_pooled(self):
        pool = BufferPool()
        backing = np.zeros((4, 4))
        pool.give(backing[1:])
        assert pool.recycled == 0
        assert pool.stats()["held_buffers"] == 0

    def test_per_key_bound(self):
        pool = BufferPool(max_per_key=2)
        for _ in range(5):
            pool.give(np.zeros(3))
        assert pool.stats()["held_buffers"] == 2

    def test_byte_budget_bound(self):
        pool = BufferPool(max_bytes=100)
        pool.give(np.zeros(64))            # 512 bytes > budget: dropped
        assert pool.stats()["held_bytes"] == 0
        pool.give(np.zeros(10))            # 80 bytes: kept
        assert pool.stats()["held_bytes"] == 80

    def test_clear(self):
        pool = BufferPool()
        pool.give(np.zeros(8))
        pool.clear()
        assert pool.stats() == {"hits": 0, "misses": 0, "recycled": 1,
                                "held_bytes": 0, "held_buffers": 0}


class TestDtypePolicy:
    @pytest.mark.parametrize("name,dtype", [("numpy64", np.float64),
                                            ("numpy32", np.float32)])
    def test_float_inputs_land_in_backend_dtype(self, name, dtype):
        with backend_or_skip(name):
            assert Tensor([1, 2, 3]).data.dtype == dtype
            assert Tensor(2.5).data.dtype == dtype
            assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == dtype
            assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == dtype

    @pytest.mark.parametrize("name", ["numpy64", "numpy32"])
    @pytest.mark.parametrize("idx_dtype", [np.int32, np.int64, np.uint32,
                                           np.bool_])
    def test_int_and_bool_arrays_pass_through_uncopied(self, name, idx_dtype):
        # Regression: index maps and masks must keep their dtype AND
        # identity — a silent float64 upcast would break (and slow) the
        # gather/scatter kernels.
        arr = np.array([0, 1, 1], dtype=idx_dtype)
        with backend_or_skip(name):
            out = nn_backend.active().asarray(arr)
            assert out is arr
            t = Tensor(arr)
            assert t.data is arr
            assert t.data.dtype == idx_dtype

    def test_matching_float_array_not_copied(self):
        arr = np.ones(4, dtype=np.float64)
        assert nn_backend.get("numpy64").asarray(arr) is arr
        arr32 = np.ones(4, dtype=np.float32)
        assert nn_backend.get("numpy32").asarray(arr32) is arr32

    def test_zeros_follow_backend_dtype(self):
        assert nn_backend.get("numpy32").zeros((2, 2)).dtype == np.float32
        assert nn_backend.get("numpy64").zeros((2, 2)).dtype == np.float64


class TestIndexArraysStayIntegral:
    """Satellite regression: the row indices driving put_rows /
    take_rows / gather_rows are never floated by Tensor coercion."""

    @pytest.mark.parametrize("name", ["numpy64", "numpy32"])
    def test_take_and_put_rows_roundtrip(self, name):
        idx = np.array([2, 0], dtype=np.int64)
        with backend_or_skip(name):
            a = Tensor(rand((4, 3)), requires_grad=True)
            v = Tensor(rand((2, 3), 1))
            out = a.put_rows(idx, v)
            np.testing.assert_allclose(out.data[idx], v.data)
            gathered = a.take_rows(idx)
            np.testing.assert_allclose(gathered.data, a.data[idx])
            gathered.sum().backward()
            assert a.grad.dtype == a.data.dtype

    @pytest.mark.parametrize("name", ["numpy64", "numpy32"])
    def test_gather_rows_keeps_value_dtype(self, name):
        with backend_or_skip(name):
            a = Tensor(rand((3, 2)))
            b = Tensor(rand((4, 2), 1))
            out = Tensor.gather_rows([a, b], np.array([0, 1], dtype=np.int32),
                                     np.array([2, 3], dtype=np.int32))
            assert out.data.dtype == a.data.dtype
            np.testing.assert_allclose(
                out.data, np.stack([a.data[2], b.data[3]]))


def _segment_reference(data, segment_ids, num_segments):
    out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    np.add.at(out, segment_ids, data)
    return out


class TestSegmentSum:
    """Direct kernel coverage (satellite): the reduceat fast path, the
    unsorted-ids fallback, and empty segments — per backend."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_sorted_ids_fast_path(self, name):
        data = rand((7, 4))
        ids = np.array([0, 0, 1, 1, 1, 2, 3])
        with backend_or_skip(name) as b:
            out = b.segment_sum(data.astype(b.dtype), ids, 4)
        np.testing.assert_allclose(
            out, _segment_reference(data, ids, 4), atol=b.tolerance)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_unsorted_ids_fallback(self, name):
        data = rand((6, 3), 1)
        ids = np.array([2, 0, 2, 1, 0, 2])     # decreasing at index 1
        with backend_or_skip(name) as b:
            out = b.segment_sum(data.astype(b.dtype), ids, 3)
        np.testing.assert_allclose(
            out, _segment_reference(data, ids, 3), atol=b.tolerance)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("ids,m", [
        (np.array([0, 0, 2, 2]), 4),     # middle + trailing segments empty
        (np.array([1, 3]), 5),           # leading + interior + trailing
        (np.array([3, 1]), 5),           # same but unsorted
    ])
    def test_empty_segments_stay_zero(self, name, ids, m):
        data = rand((ids.size, 2), 2)
        with backend_or_skip(name) as b:
            out = b.segment_sum(data.astype(b.dtype), ids, m)
        ref = _segment_reference(data, ids, m)
        np.testing.assert_allclose(out, ref, atol=b.tolerance)
        empty = np.setdiff1d(np.arange(m), ids)
        np.testing.assert_array_equal(out[empty], 0.0)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_no_rows_at_all(self, name):
        with backend_or_skip(name) as b:
            out = b.segment_sum(np.empty((0, 3), dtype=b.dtype),
                                np.empty(0, dtype=np.int64), 2)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_pair_matches_two_single_sums(self, name):
        a, c = rand((5, 3), 3), rand((5, 3), 4)
        ids = np.array([0, 1, 1, 2, 2])
        with backend_or_skip(name) as b:
            fused = b.segment_sum_pair(a.astype(b.dtype), c.astype(b.dtype),
                                       ids, 3)
            left = b.segment_sum(a.astype(b.dtype), ids, 3)
            right = b.segment_sum(c.astype(b.dtype), ids, 3)
        np.testing.assert_allclose(fused[:, :3], left, atol=b.tolerance)
        np.testing.assert_allclose(fused[:, 3:], right, atol=b.tolerance)

    def test_dtype_preserved(self):
        b = nn_backend.get("numpy64")
        data = rand((3, 2)).astype(np.float32)
        out = b.segment_sum(data, np.array([0, 0, 1]), 3)
        assert out.dtype == np.float32      # follows the operand, not policy

    def test_treelstm_helper_delegates(self):
        # _segment_reduce is the tree-LSTM's door into the kernel; cover
        # the unsorted + empty-segment case through it directly.
        data = rand((4, 3), 5)
        ids = np.array([2, 0, 2, 0])
        np.testing.assert_allclose(_segment_reduce(data, ids, 4),
                                   _segment_reference(data, ids, 4))

    def test_treelstm_autograd_wrapper_gradcheck(self):
        x = Tensor(rand((5, 2), 6), requires_grad=True)
        ids = np.array([0, 2, 2, 0, 1])
        check_gradients(
            lambda: (_segment_sum(x, ids, 4) ** 2).sum(), [x])


class TestAddmm:
    def test_matches_composed_graph_bitwise(self):
        """Bitwise against the composed graph when the backend's GEMM
        is the NumPy/BLAS one; ``cnative``'s compiled dot loop differs
        from BLAS in the last ulp, so it gets the documented 1e-8 bar
        (the same contract the compiled segment kernels carry)."""
        if nn_backend.active().name == "cnative":
            def assert_same(a, b):
                np.testing.assert_allclose(a, b, rtol=0,
                                           atol=backend_tolerance())
        else:
            assert_same = np.testing.assert_array_equal
        bias = Tensor(rand((4,)), requires_grad=True)
        x = Tensor(rand((3, 5), 1), requires_grad=True)
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        fused = Tensor.addmm(bias, x, w)
        composed = bias + x.matmul(w.T)
        assert_same(fused.data, composed.data)

        fused.sum().backward()
        fused_grads = [t.grad.copy() for t in (bias, x, w)]
        for t in (bias, x, w):
            t.zero_grad()
        composed2 = bias + x.matmul(w.T)
        composed2.sum().backward()
        for g, t in zip(fused_grads, (bias, x, w)):
            assert_same(g, t.grad)

    def test_gradcheck_broadcast_bias(self):
        bias = Tensor(rand((4,)), requires_grad=True)
        x = Tensor(rand((3, 5), 1), requires_grad=True)
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        check_gradients(
            lambda: (Tensor.addmm(bias, x, w) ** 2).sum(), [bias, x, w])

    def test_gradcheck_full_base(self):
        base = Tensor(rand((3, 4)), requires_grad=True)
        x = Tensor(rand((3, 5), 1), requires_grad=True)
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        check_gradients(
            lambda: (Tensor.addmm(base, x, w) ** 2).sum(), [base, x, w])

    def test_non_2d_falls_back(self):
        bias = Tensor(rand((4,)), requires_grad=True)
        x = Tensor(rand((5,), 1), requires_grad=True)   # 1-D step input
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        out = Tensor.addmm(bias, x, w)
        np.testing.assert_allclose(out.data, bias.data + x.data @ w.data.T)
        check_gradients(
            lambda: (Tensor.addmm(bias, x, w) ** 2).sum(), [bias, x, w])


class TestFreeBuffers:
    def _loss(self, params):
        a, w = params
        h = a.matmul(w).tanh()
        return (h * h).sum()

    def test_leaf_grads_identical_and_intermediates_freed(self):
        a = Tensor(rand((4, 3)), requires_grad=True)
        w = Tensor(rand((3, 2), 1), requires_grad=True)

        h = a.matmul(w).tanh()
        loss = (h * h).sum()
        loss.backward()
        ref = [a.grad.copy(), w.grad.copy()]
        assert h.grad is not None
        a.zero_grad(); w.zero_grad()

        h2 = a.matmul(w).tanh()
        loss2 = (h2 * h2).sum()
        loss2.backward(free_buffers=True)
        np.testing.assert_array_equal(a.grad, ref[0])
        np.testing.assert_array_equal(w.grad, ref[1])
        assert h2.grad is None              # recycled into the pool
        assert loss2.grad is None

    def test_freed_buffers_are_recycled_on_next_backward(self):
        pool = nn_backend.active().pool
        a = Tensor(rand((16, 8)), requires_grad=True)
        w = Tensor(rand((8, 8), 1), requires_grad=True)
        self._loss([a, w]).backward(free_buffers=True)
        hits_before = pool.hits
        a.zero_grad(); w.zero_grad()
        self._loss([a, w]).backward(free_buffers=True)
        assert pool.hits > hits_before      # same shapes came back pooled


class TestNumpy32Equivalence:
    """The documented-tolerance contract: numpy32 agrees with the
    float64 reference to each backend's ``tolerance`` on forwards and
    (via the fp64 finite-difference reference) on gradients."""

    def _tol(self):
        return nn_backend.get("numpy32").tolerance

    def test_init_streams_match_across_backends(self):
        from repro.nn import init

        with nn_backend.use("numpy64"):
            w64 = init.xavier_uniform((6, 4), np.random.default_rng(0))
        with nn_backend.use("numpy32"):
            w32 = init.xavier_uniform((6, 4), np.random.default_rng(0))
        assert w64.dtype == np.float64 and w32.dtype == np.float32
        # Sampling happens in float64 then casts: identical streams.
        np.testing.assert_array_equal(w32, w64.astype(np.float32))

    def test_mlp_forward_within_tolerance(self):
        x = rand((6, 8))
        w1, w2 = rand((5, 8), 1), rand((1, 5), 2)
        b1, b2 = rand((5,), 3), rand((1,), 4)

        def forward():
            h = Tensor.addmm(Tensor(b1), Tensor(x), Tensor(w1)).tanh()
            return Tensor.addmm(Tensor(b2), h, Tensor(w2)).sigmoid().data

        with nn_backend.use("numpy64"):
            ref = forward()
        with nn_backend.use("numpy32"):
            out = forward()
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, atol=self._tol())

    def test_segment_model_forward_within_tolerance(self):
        x = rand((9, 4))
        ids = np.array([0, 0, 1, 1, 1, 2, 3, 3, 3])

        def forward():
            t = Tensor(x)
            return _segment_sum(t.tanh(), ids, 4).sigmoid().data

        with nn_backend.use("numpy64"):
            ref = forward()
        with nn_backend.use("numpy32"):
            out = forward()
        np.testing.assert_allclose(out, ref, atol=self._tol())

    def test_gradcheck_mlp_fp32(self):
        arrays = [rand((4, 6)), rand((3, 6), 1), rand((3,), 2)]

        def loss(ts):
            x, w, b = ts
            return (Tensor.addmm(b, x, w).tanh() ** 2).sum()

        with nn_backend.use("numpy32"):
            check_gradients_fp64_ref(loss, arrays)

    def test_gradcheck_segment_sum_fp32(self):
        arrays = [rand((6, 3))]
        ids = np.array([1, 0, 2, 2, 0, 1])

        def loss(ts):
            return (_segment_sum(ts[0].sigmoid(), ids, 3) ** 2).sum()

        with nn_backend.use("numpy32"):
            check_gradients_fp64_ref(loss, arrays)

    def test_gradcheck_gather_scatter_fp32(self):
        arrays = [rand((5, 3)), rand((4, 3), 1)]

        def loss(ts):
            out = Tensor.gather_rows(ts, [0, 1, 1, 0], [4, 0, 3, 4])
            return (out ** 2).sum()

        with nn_backend.use("numpy32"):
            check_gradients_fp64_ref(loss, arrays)

    def test_optimizer_moments_follow_dtype(self):
        from repro.nn.optim import Adam

        with nn_backend.use("numpy32"):
            p = Tensor(rand((3, 3)), requires_grad=True)
            opt = Adam([p], lr=1e-2)
            p.grad = np.ones_like(p.data)
            opt.step()
            assert p.data.dtype == np.float32
            assert all(m.dtype == np.float32 for m in opt._m)
            assert all(v.dtype == np.float32 for v in opt._v)
