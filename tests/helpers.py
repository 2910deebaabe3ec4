"""Shared test utilities: backend selection and tolerances,
finite-difference gradient checking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor


def backend_or_skip(name: str):
    """A ``use(name)`` context, skipping when the backend cannot run here."""
    from repro.nn import backend as nn_backend

    if name not in nn_backend.available_backends():
        pytest.skip(f"backend {name!r} unavailable (dependency missing)")
    return nn_backend.use(name)


def backend_tolerance(floor: float = 1e-8) -> float:
    """Absolute tolerance for equivalence asserts, by active backend.

    On float64 backends this returns ``floor`` unchanged — the
    historical (pre-backend) bars stay exactly as tight as they were.
    On low-precision backends it widens to the backend's documented
    ``tolerance`` so the same suite doubles as the fp32 equivalence
    suite under ``REPRO_BACKEND=numpy32``.
    """
    from repro.nn import backend as nn_backend

    backend = nn_backend.active()
    if np.dtype(backend.dtype) == np.float64:
        return floor
    return max(floor, backend.tolerance)


def numeric_grad(fn, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. ``value``."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn()
        flat[i] = orig - eps
        minus = fn()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(build_loss, tensors: list[Tensor], atol: float = 1e-5,
                    rtol: float = 1e-4) -> None:
    """Assert autograd gradients match finite differences.

    ``build_loss`` must construct a *fresh* scalar loss Tensor from the
    current ``tensors`` data each time it is called.
    """
    loss = build_loss()
    for t in tensors:
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    grads = []
    for t in tensors:
        assert t.grad is not None, f"no gradient for {t!r}"
        grads.append(np.asarray(t.grad, dtype=np.float64))
    if all(t.data.dtype == np.float64 for t in tensors):
        for t, grad in zip(tensors, grads):
            expected = numeric_grad(lambda: float(build_loss().data), t.data)
            np.testing.assert_allclose(grad, expected, atol=atol, rtol=rtol)
        return
    # Low-precision backend: central differences drown in float32
    # rounding, so the reference is computed with the same tensors
    # temporarily upcast to float64 (ops follow operand dtype), and the
    # comparison happens at the fp32-documented tolerance.
    from repro.nn import backend as nn_backend

    originals = [t.data for t in tensors]
    try:
        with nn_backend.use("numpy64"):
            for t, data in zip(tensors, originals):
                t.data = np.asarray(data, dtype=np.float64)
            for t, grad in zip(tensors, grads):
                expected = numeric_grad(
                    lambda: float(build_loss().data), t.data)
                np.testing.assert_allclose(grad, expected,
                                           atol=max(atol, 1e-3),
                                           rtol=max(rtol, 1e-2))
    finally:
        for t, data in zip(tensors, originals):
            t.data = data


def check_gradients_fp64_ref(build_loss, arrays: list[np.ndarray],
                             atol: float = 1e-3, rtol: float = 1e-2) -> None:
    """Gradcheck for low-precision backends.

    Finite differences are meaningless in float32 (the perturbation
    drowns in rounding), so the autograd pass runs under the *active*
    backend while the central-difference reference is computed in
    float64 under ``numpy64``, and the two are compared at the caller's
    (backend-documented) tolerance. ``build_loss`` takes a list of
    Tensors and returns a scalar loss.
    """
    from repro.nn import backend as nn_backend

    tensors = [Tensor(np.array(a), requires_grad=True) for a in arrays]
    build_loss(tensors).backward()
    grads = [np.asarray(t.grad, dtype=np.float64) for t in tensors]
    with nn_backend.use("numpy64"):
        vals = [np.array(a, dtype=np.float64) for a in arrays]

        def scalar() -> float:
            return float(build_loss([Tensor(v) for v in vals]).data)

        for val, grad in zip(vals, grads):
            expected = numeric_grad(scalar, val)
            np.testing.assert_allclose(grad, expected, atol=atol, rtol=rtol)
