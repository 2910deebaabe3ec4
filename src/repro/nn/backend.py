"""Pluggable ops backend: dtype policy + the autograd core's hot kernels.

Every numerical hot spot of the reproduction funnels through a handful
of named kernels — the per-level segment sums of the tree-LSTM, the
multi-source ``gather_rows`` / scatter-add pair that moves states
between levels, the gate GEMMs, and gradient-buffer allocation. This
module gives those kernels a dispatch seam so a faster implementation
(or a different float width) can be selected **without forking any
model code**:

* ``numpy64`` — the default. Bitwise-compatible with the historical
  inlined NumPy code: float64 end-to-end, same reduction order, same
  allocation behaviour. The 1e-8 batched-vs-per-tree equivalence suite
  is its correctness bar.
* ``numpy32`` — float32 end-to-end. The dtype policy threads through
  :class:`~repro.nn.tensor.Tensor` creation, weight init, optimizer
  moments, and checkpoints (which record their dtype). Equivalence to
  the float64 reference holds at the documented ``tolerance`` (see
  ``docs/backends.md``).
* ``cnative`` — hand-written C kernels (``repro.nn.cnative``), compiled
  on first use with the system C compiler into a source-hash-keyed
  build cache and loaded via stdlib ``ctypes``. float64, accumulation
  in ascending edge order ⇒ the 1e-8 suite applies unchanged, and the
  deterministic column-partitioned reductions make results bitwise
  identical for every ``REPRO_NUM_THREADS``. ctypes releases the GIL
  per call, so serve-tier threads overlap encodes for real. With no
  compiler (and no cached build) the backend is unavailable —
  selecting it raises :class:`BackendUnavailableError`, and an
  ``REPRO_BACKEND=cnative`` environment default falls back to
  ``numpy64`` with a warning.

Selection: the ``REPRO_BACKEND`` environment variable at import, the
``--backend`` flag of ``repro train`` / ``repro serve``, or
programmatically::

    from repro.nn import backend
    backend.set_backend("numpy32")          # process-wide
    with backend.use("numpy64"):            # scoped (tests)
        ...

Backends also own a bounded **gradient-buffer pool**: the training
engine returns parameter-gradient and freed intermediate-gradient
arrays after each optimizer step, and ``Tensor._accumulate`` draws its
zeroed accumulators from the pool instead of a fresh ``np.zeros`` per
tensor per step (shapes repeat exactly across steps, so the hit rate
is ~100% after the first batch).
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings

import numpy as np

__all__ = [
    "KernelBackend", "BufferPool", "BackendUnavailableError",
    "register", "get", "active", "set_backend", "use",
    "available_backends", "default_dtype", "describe", "sigmoid_stable",
]


class BackendUnavailableError(RuntimeError):
    """The requested backend exists but cannot run here (missing dep)."""


def sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """Numerically-stable sigmoid, same branch structure as
    ``Tensor.sigmoid`` so fused-activation outputs match it bitwise."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class BufferPool:
    """Bounded free-list of reusable gradient arrays, keyed by
    ``(shape, dtype)``.

    ``take`` returns a **zeroed** array (pool hit or fresh allocation);
    ``give`` returns one for reuse. The pool is an allocation cache,
    not a correctness feature: dropping every buffer on the floor is
    always safe, so ``give`` silently discards when a key's free-list
    or the total byte budget is full.
    """

    def __init__(self, max_per_key: int = 16,
                 max_bytes: int = 128 * 1024 * 1024):
        self.max_per_key = max_per_key
        self.max_bytes = max_bytes
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.recycled = 0

    @staticmethod
    def _key(shape: tuple, dtype) -> tuple:
        return (shape, np.dtype(dtype).str)

    def take(self, shape: tuple, dtype) -> np.ndarray:
        with self._lock:
            stack = self._free.get(self._key(shape, dtype))
            if stack:
                buf = stack.pop()
                self._bytes -= buf.nbytes
                self.hits += 1
                buf.fill(0.0)
                return buf
            self.misses += 1
        return np.zeros(shape, dtype=dtype)

    def give(self, array: np.ndarray) -> None:
        if not isinstance(array, np.ndarray) or array.base is not None:
            return                       # never pool a view
        with self._lock:
            if self._bytes + array.nbytes > self.max_bytes:
                return
            stack = self._free.setdefault(self._key(array.shape,
                                                    array.dtype), [])
            if len(stack) >= self.max_per_key:
                return
            stack.append(array)
            self._bytes += array.nbytes
            self.recycled += 1

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._bytes = 0

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "recycled": self.recycled, "held_bytes": self._bytes,
                    "held_buffers": sum(len(s) for s in
                                        self._free.values())}


class KernelBackend:
    """Base backend: pure-NumPy kernels, parameterized by ``dtype``.

    The kernel implementations here are *exactly* the historical
    inlined code (same reduction order, same intermediate layout), so
    ``numpy64`` is a pure refactor. Subclasses override individual
    kernels (``cnative``) or just the dtype policy (``numpy32``).

    Attributes
    ----------
    dtype:
        The float width every :class:`~repro.nn.tensor.Tensor` carrying
        real-valued data is coerced to. Integer/bool arrays (index maps,
        masks) are never touched by the policy.
    tolerance:
        The documented absolute tolerance at which this backend's
        results agree with the float64 reference implementation. The
        equivalence test-suite is parametrized on it.
    """

    name = "numpy64"
    dtype = np.float64
    tolerance = 1e-8

    def __init__(self):
        self.pool = BufferPool()

    # ------------------------------------------------------------------
    # dtype policy
    # ------------------------------------------------------------------
    def asarray(self, data) -> np.ndarray:
        """Coerce ``data`` for Tensor storage under this backend's policy.

        Float arrays are cast to :attr:`dtype`; integer and bool arrays
        pass through **unchanged and uncopied** — they are index maps
        and masks whose integrality the gather/scatter kernels rely on.
        Non-array inputs (lists, scalars) become :attr:`dtype` arrays.
        """
        if isinstance(data, np.ndarray):
            if data.dtype == self.dtype or data.dtype.kind in "iub":
                return data
            return data.astype(self.dtype)
        return np.asarray(data, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    # ------------------------------------------------------------------
    # gradient-buffer pool
    # ------------------------------------------------------------------
    def grad_buffer(self, shape, dtype) -> np.ndarray:
        """A zeroed accumulator array (pooled when one was released)."""
        return self.pool.take(tuple(shape), dtype)

    def release(self, array: np.ndarray) -> None:
        """Return a gradient buffer to the pool for reuse."""
        self.pool.give(array)

    # ------------------------------------------------------------------
    # hot kernels (raw ndarray in, raw ndarray out; autograd wiring
    # stays in tensor.py / treelstm.py)
    # ------------------------------------------------------------------
    def segment_sum(self, data: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Sum rows of ``data`` into ``num_segments`` buckets.

        ``reduceat`` fast path for non-decreasing ids (what every level
        schedule emits); unsorted ids fall back to ``np.add.at``.
        """
        if segment_ids.size == 0:
            return np.zeros((num_segments,) + data.shape[1:],
                            dtype=data.dtype)
        if np.all(segment_ids[:-1] <= segment_ids[1:]):
            counts = np.bincount(segment_ids, minlength=num_segments)
            starts = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
            nonempty = counts > 0
            if nonempty.all():
                return np.add.reduceat(data, starts, axis=0)
            # Empty segments contribute no rows, so reducing at only the
            # non-empty starts still sums each segment exactly.
            out = np.zeros((num_segments,) + data.shape[1:],
                           dtype=data.dtype)
            out[nonempty] = np.add.reduceat(data, starts[nonempty], axis=0)
            return out
        out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
        np.add.at(out, segment_ids, data)
        return out

    def segment_sum_pair(self, a: np.ndarray, b: np.ndarray,
                         segment_ids: np.ndarray,
                         num_segments: int) -> np.ndarray:
        """Fused bucket sum of two same-shaped operands -> ``(m, 2w)``.

        One sweep over a twice-as-wide matrix instead of two scatters
        (the tree-LSTM's h̃ and Σ f⊙c share the same edge list).
        """
        return self.segment_sum(np.concatenate([a, b], axis=1),
                                segment_ids, num_segments)

    def segment_sum_pair_gated(self, a: np.ndarray, f: np.ndarray,
                               c: np.ndarray, segment_ids: np.ndarray,
                               num_segments: int) -> np.ndarray:
        """:meth:`segment_sum_pair` with the second operand's
        forget-gate product ``f ⊙ c`` folded into the sweep.

        The tree-LSTM's upward pass sums ``h`` and ``f ⊙ c`` over the
        same child-edge list; computing the product per edge inside
        the sweep skips one full-size temporary (and its graph node).
        The reference formulation *is* the composed one, so float64
        results are bitwise identical to ``segment_sum_pair(a, f*c)``.
        """
        return self.segment_sum_pair(a, f * c, segment_ids, num_segments)

    def take_rows(self, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row gather ``data[rows]`` (embedding/state lookup)."""
        return data[rows]

    def gather_rows(self, sources: list[np.ndarray], source_ids: np.ndarray,
                    row_ids: np.ndarray, used: np.ndarray) -> np.ndarray:
        """Multi-source row gather: ``out[e] = sources[src[e]][row[e]]``.

        ``used`` is the (validated) unique source ids actually read.
        """
        out = np.empty((source_ids.shape[0],) + sources[0].shape[1:],
                       dtype=sources[0].dtype)
        for s in used:
            mask = source_ids == s
            out[mask] = sources[s][row_ids[mask]]
        return out

    def scatter_add_rows(self, out: np.ndarray, rows: np.ndarray,
                         values: np.ndarray) -> None:
        """In-place ``out[rows] += values`` with duplicate-safe adds."""
        np.add.at(out, rows, values)

    def gemm_gates(self, base: np.ndarray, mat: np.ndarray,
                   weight: np.ndarray,
                   activation: str | None = None) -> np.ndarray:
        """The gate projection ``base + mat @ weight.T`` (one GEMM).

        ``base`` may broadcast (a bias row) or match the output shape
        (a precomputed input projection); :meth:`gemm_gates` is the
        forward of ``Tensor.addmm``, the fused op every LSTM/tree-LSTM
        gate and linear layer routes through.

        ``activation`` fuses the gate nonlinearity into the kernel
        (``"sigmoid"``, ``"tanh"``, or ``"iou"`` — sigmoid on the first
        two thirds of the columns, tanh on the last third, matching the
        tree-LSTM's packed i|o|u gate block; compiled backends apply it
        in the same pass as the GEMM). The NumPy implementation applies
        the exact formulations ``Tensor.sigmoid``/``tanh`` use, so
        fusing is bitwise-neutral on float64.
        """
        out = base + mat @ weight.T
        if activation is None:
            return out
        if activation == "sigmoid":
            return sigmoid_stable(out)
        if activation == "tanh":
            return np.tanh(out)
        if activation == "iou":
            if out.shape[-1] % 3:
                raise ValueError(
                    "iou activation needs a column count divisible by 3, "
                    f"got {out.shape[-1]}")
            two = 2 * (out.shape[-1] // 3)
            out[..., :two] = sigmoid_stable(out[..., :two])
            out[..., two:] = np.tanh(out[..., two:])
            return out
        raise ValueError(f"unknown gemm_gates activation {activation!r}")

    def act_backward(self, grad: np.ndarray, out: np.ndarray,
                     activation: str) -> np.ndarray:
        """Backward of the fused :meth:`gemm_gates` activation: fold
        the derivative into ``grad``, given the *post*-activation
        values ``out``.

        The NumPy formulation uses the exact expressions the unfused
        ``Tensor.sigmoid``/``tanh`` backwards use, so fusing stays
        bitwise-neutral on float64; compiled backends do the same math
        in one pass instead of several elementwise temporaries.
        """
        if activation == "sigmoid":
            return grad * out * (1.0 - out)
        if activation == "tanh":
            return grad * (1.0 - out ** 2)
        if activation == "iou":
            two = 2 * (out.shape[-1] // 3)
            g = np.empty_like(grad)
            sig = out[..., :two]
            g[..., :two] = grad[..., :two] * sig * (1.0 - sig)
            th = out[..., two:]
            g[..., two:] = grad[..., two:] * (1.0 - th ** 2)
            return g
        raise ValueError(f"unknown gemm_gates activation {activation!r}")

    def lstm_cell(self, iou: np.ndarray,
                  fc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fused pointwise (tree-)LSTM cell on the *post*-activation
        packed gate block ``iou = [σ(i) | σ(o) | tanh(u)]`` and the
        forget-gated cell sum ``fc``::

            c = i ⊙ u + fc          h = o ⊙ tanh(c)

        Returns ``(out, th)``: the packed ``(m, 2h)`` block ``[h | c]``
        (the caller slices it into the two state tensors) plus
        ``tanh(c)``, which the caller keeps for
        :meth:`lstm_cell_backward` so the backward never recomputes
        the transcendental. The elementwise op order matches the
        historical composed graph (slice → mul → add → tanh → mul),
        so float64 results are bitwise-identical to the unfused
        version.
        """
        hs = fc.shape[-1]
        i = iou[..., :hs]
        o = iou[..., hs:2 * hs]
        u = iou[..., 2 * hs:]
        c = i * u + fc
        th = np.tanh(c)
        out = np.empty(c.shape[:-1] + (2 * hs,), dtype=c.dtype)
        out[..., :hs] = o * th
        out[..., hs:] = c
        return out, th

    def lstm_cell_backward(self, grad: np.ndarray, iou: np.ndarray,
                           th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backward of :meth:`lstm_cell`.

        ``grad`` is the packed incoming gradient ``[gh | gc]`` (the
        external consumers of h and c have already accumulated into
        it), ``iou`` the post-activation gates, ``th`` the ``tanh(c)``
        the forward returned. Returns ``(giou, gfc)`` using the exact
        historical formulas, with the tanh-path contribution added to
        the external c gradient last, the same order the composed
        graph accumulated it.
        """
        hs = th.shape[-1]
        i = iou[..., :hs]
        o = iou[..., hs:2 * hs]
        u = iou[..., 2 * hs:]
        gh = grad[..., :hs]
        gc = grad[..., hs:] + (gh * o) * (1.0 - th ** 2)
        giou = np.empty_like(iou)
        giou[..., :hs] = gc * u
        giou[..., hs:2 * hs] = gh * th
        giou[..., 2 * hs:] = gc * i
        return giou, gc

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        return True

    def describe(self) -> dict:
        return {"name": self.name, "dtype": np.dtype(self.dtype).name,
                "tolerance": self.tolerance}


class Numpy64Backend(KernelBackend):
    """The default: float64 end-to-end, bitwise-compatible with the
    pre-backend inlined code."""


class Numpy32Backend(KernelBackend):
    """float32 end-to-end: half the memory traffic, wider SIMD/BLAS.

    Agreement with the float64 reference is documented at
    ``tolerance`` (absolute, on forward activations and gradients of
    the shipped model sizes); resume stays bitwise-identical *within*
    the backend.
    """

    name = "numpy32"
    dtype = np.float32
    tolerance = 3e-4


class CNativeBackend(Numpy64Backend):
    """Self-compiled C kernels loaded via ctypes (float64).

    The C implementations (see ``repro.nn.cnative``) accumulate in
    ascending edge order, so the 1e-8 equivalence bar applies
    unchanged; the parallel reductions partition by output column,
    which makes results bitwise identical for every thread count
    (``REPRO_NUM_THREADS``). The compile happens lazily on the first
    kernel call — registration and ``available()`` only probe for a
    compiler / cached object. ctypes releases the GIL for the duration
    of each call, so threaded servers overlap encode work for real.

    Dispatch guards: 2-D float64 operands take the C path, everything
    else (odd ranks, float32 operands passed directly, empty index
    lists) falls back to the NumPy implementations. Plain GEMMs
    (``activation=None``) always go to BLAS — it wins at every size we
    measured. GEMMs *with* a fused activation run the compiled loop,
    which folds the nonlinearity into the same pass over the output
    and beats BLAS-plus-separate-activation across the gate sizes this
    codebase emits; above :attr:`gemm_native_max_flops` multiply-adds
    they fall back to BLAS anyway as a guard rail.
    """

    name = "cnative"
    tolerance = 1e-8
    #: m*n*k ceiling for the compiled fused-activation GEMM; larger
    #: goes to BLAS + NumPy activation
    gemm_native_max_flops = 1 << 23
    #: mirrors ``cnative.ACTIVATION_CODES`` (asserted equal in tests);
    #: kept local so the hot path skips a per-call module import
    _act_codes = {None: 0, "sigmoid": 1, "tanh": 2, "iou": 3}

    _native = None                     # process-wide loaded library

    @classmethod
    def available(cls) -> bool:
        try:
            from . import cnative
        except Exception:
            return False
        return cnative.available()

    def _lib(self):
        if CNativeBackend._native is None:
            from . import cnative
            CNativeBackend._native = cnative.load()
        return CNativeBackend._native

    def segment_sum(self, data, segment_ids, num_segments):
        if data.ndim != 2 or data.dtype != np.float64 \
                or segment_ids.size == 0:
            return super().segment_sum(data, segment_ids, num_segments)
        return self._lib().segment_sum(data, segment_ids, num_segments)

    def segment_sum_pair(self, a, b, segment_ids, num_segments):
        if a.ndim != 2 or a.dtype != np.float64 or b.dtype != np.float64 \
                or a.shape != b.shape or segment_ids.size == 0:
            return super().segment_sum_pair(a, b, segment_ids,
                                            num_segments)
        return self._lib().segment_sum_pair(a, b, segment_ids,
                                            num_segments)

    def segment_sum_pair_gated(self, a, f, c, segment_ids, num_segments):
        if a.ndim != 2 or a.dtype != np.float64 or f.dtype != np.float64 \
                or c.dtype != np.float64 or f.shape != c.shape \
                or a.shape != f.shape or segment_ids.size == 0:
            return super().segment_sum_pair_gated(a, f, c, segment_ids,
                                                  num_segments)
        return self._lib().segment_sum_pair_gated(a, f, c, segment_ids,
                                                  num_segments)

    def take_rows(self, data, rows):
        if data.ndim != 2 or rows.ndim != 1 or data.dtype != np.float64 \
                or not data.flags.c_contiguous or rows.size == 0:
            return super().take_rows(data, rows)
        return self._lib().take_rows(data, rows)

    def gather_rows(self, sources, source_ids, row_ids, used):
        if (source_ids.size == 0
                or any(s.ndim != 2 or s.dtype != np.float64
                       for s in sources)):
            return super().gather_rows(sources, source_ids, row_ids, used)
        return self._lib().gather_rows(sources, source_ids, row_ids)

    def scatter_add_rows(self, out, rows, values):
        if out.ndim != 2 or values.ndim != 2 \
                or out.dtype != np.float64 or values.dtype != np.float64 \
                or not out.flags.c_contiguous or rows.size == 0:
            super().scatter_add_rows(out, rows, values)
            return
        self._lib().scatter_add_rows(out, rows, values)

    def gemm_gates(self, base, mat, weight, activation=None):
        try:
            act = self._act_codes[activation]
        except KeyError:
            raise ValueError(
                f"unknown gemm_gates activation {activation!r}") from None
        if (activation is None         # plain GEMM: BLAS wins at any size
                or mat.ndim != 2 or weight.ndim != 2
                or mat.dtype != np.float64 or weight.dtype != np.float64
                or base.dtype != np.float64
                or mat.shape[1] != weight.shape[1]):
            return super().gemm_gates(base, mat, weight, activation)
        m, k = mat.shape
        n = weight.shape[0]
        if activation == "iou" and n % 3:
            return super().gemm_gates(base, mat, weight, activation)
        if base.ndim == 1 and base.shape[0] == n:
            base_mode = 0
        elif base.ndim == 2 and base.shape == (m, n):
            base_mode = 1
        else:
            return super().gemm_gates(base, mat, weight, activation)
        if m * n * k > self.gemm_native_max_flops:
            return super().gemm_gates(base, mat, weight, activation)
        return self._lib().gemm_gates(base, base_mode, mat, weight, act)

    def act_backward(self, grad, out, activation):
        act = self._act_codes.get(activation)
        if (not act or grad.ndim != 2
                or grad.dtype != np.float64 or out.dtype != np.float64
                or grad.shape != out.shape
                or (activation == "iou" and grad.shape[1] % 3)):
            return super().act_backward(grad, out, activation)
        two = 2 * (grad.shape[1] // 3) if activation == "iou" else 0
        return self._lib().act_backward(grad, out, two, act)

    def lstm_cell(self, iou, fc):
        if (iou.ndim != 2 or fc.ndim != 2
                or iou.dtype != np.float64 or fc.dtype != np.float64
                or iou.shape != (fc.shape[0], 3 * fc.shape[1])):
            return super().lstm_cell(iou, fc)
        return self._lib().lstm_cell(iou, fc)

    def lstm_cell_backward(self, grad, iou, th):
        if (grad.ndim != 2 or iou.ndim != 2 or th.ndim != 2
                or grad.dtype != np.float64 or iou.dtype != np.float64
                or th.dtype != np.float64
                or grad.shape != (th.shape[0], 2 * th.shape[1])
                or iou.shape != (th.shape[0], 3 * th.shape[1])):
            return super().lstm_cell_backward(grad, iou, th)
        return self._lib().lstm_cell_backward(grad, iou, th)


# ----------------------------------------------------------------------
# registry + selection
# ----------------------------------------------------------------------
_REGISTRY: dict[str, KernelBackend] = {}
_LOCK = threading.Lock()


def register(backend: KernelBackend) -> KernelBackend:
    """Add (or replace) a backend instance in the registry."""
    with _LOCK:
        _REGISTRY[backend.name] = backend
    return backend


register(Numpy64Backend())
register(Numpy32Backend())
register(CNativeBackend())

_ACTIVE: KernelBackend = _REGISTRY["numpy64"]


def get(name: str) -> KernelBackend:
    """The registered backend called ``name``; raises on unknown or
    (for optional backends) unavailable names."""
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r} (registered: "
            f"{sorted(_REGISTRY)})") from None
    if not backend.available():
        raise BackendUnavailableError(
            f"backend {name!r} is registered but unavailable here "
            "(is its dependency installed?)")
    return backend


def active() -> KernelBackend:
    """The backend every Tensor/kernel call currently dispatches to."""
    return _ACTIVE


def set_backend(name: str) -> KernelBackend:
    """Select the process-wide backend (validates availability)."""
    global _ACTIVE
    _ACTIVE = get(name)
    return _ACTIVE


@contextlib.contextmanager
def use(name: str):
    """Scoped backend selection (tests, per-call overrides)::

        with backend.use("numpy32"):
            model = build_model(...)
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = get(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def available_backends() -> list[str]:
    """Names of the backends that can actually run here."""
    return sorted(n for n, b in _REGISTRY.items() if b.available())


def default_dtype():
    """The active backend's float dtype (the Tensor coercion target)."""
    return _ACTIVE.dtype


def describe() -> dict:
    """Stats-stream-friendly identity of the active backend."""
    return _ACTIVE.describe()


def _init_from_env() -> None:
    name = os.environ.get("REPRO_BACKEND", "").strip()
    if not name or name == "numpy64":
        return
    try:
        set_backend(name)
    except BackendUnavailableError:
        # The optional backend's dependency is missing: run on the
        # default rather than refusing to import (a shared config may
        # name cnative on a host without a C compiler).
        warnings.warn(f"REPRO_BACKEND={name} is unavailable here; "
                      "falling back to numpy64", RuntimeWarning,
                      stacklevel=2)
    except ValueError as error:
        raise ValueError(f"REPRO_BACKEND: {error}") from None


_init_from_env()
