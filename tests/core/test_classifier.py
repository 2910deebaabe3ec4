"""The pair classifier head: the tape-free ndarray path of
``PairClassifier.logits`` against the autograd ``Tensor`` path."""

import numpy as np
import pytest

from repro.core.classifier import PairClassifier
from repro.nn.tensor import Tensor, no_grad

from ..helpers import backend_or_skip, backend_tolerance

BACKENDS = ["numpy64", "numpy32", "cnative"]
LATENT = 6


def _rows(seed, batch=7):
    return np.random.default_rng(seed).normal(size=(batch, LATENT))


@pytest.mark.parametrize("hidden", [0, 4])
@pytest.mark.parametrize("name", BACKENDS)
def test_ndarray_logits_match_tensor_path(name, hidden):
    with backend_or_skip(name) as kernels:
        head = PairClassifier(LATENT, hidden=hidden,
                              rng=np.random.default_rng(3))
        z_i, z_j = _rows(0), _rows(1)
        with no_grad():
            reference = head.logits(Tensor(z_i), Tensor(z_j))
        got = head.logits(z_i, z_j)
        assert isinstance(reference, Tensor)
        assert isinstance(got, np.ndarray) and not isinstance(got, Tensor)
        assert got.shape == (7,)
        assert got.dtype == kernels.dtype
        if name == "numpy64":
            np.testing.assert_array_equal(got, reference.data)
        else:
            np.testing.assert_allclose(got, reference.data, rtol=0,
                                       atol=backend_tolerance(1e-8))


@pytest.mark.parametrize("hidden", [0, 4])
def test_ndarray_logits_build_no_tensor(hidden, monkeypatch):
    head = PairClassifier(LATENT, hidden=hidden,
                          rng=np.random.default_rng(3))
    z_i, z_j = _rows(0), _rows(1)
    expected = head.logits(z_i, z_j)

    def no_tensors(*args, **kwargs):
        raise AssertionError("the ndarray head constructed a Tensor")

    monkeypatch.setattr(Tensor, "__init__", no_tensors)
    np.testing.assert_array_equal(head.logits(z_i, z_j), expected)


def test_ndarray_rows_broadcast_view_accepted():
    """A read-only broadcast baseline row scores like a materialized one."""
    head = PairClassifier(LATENT, hidden=4, rng=np.random.default_rng(3))
    z = _rows(0)
    baseline = np.broadcast_to(z[0], z.shape)
    np.testing.assert_array_equal(head.logits(z, baseline),
                                  head.logits(z, baseline.copy()))


def test_tensor_logit_still_returns_tensor():
    head = PairClassifier(LATENT, hidden=4, rng=np.random.default_rng(3))
    z = _rows(0, batch=2)
    with no_grad():
        single = head.logit(Tensor(z[0]), Tensor(z[1]))
    assert isinstance(single, Tensor)
    assert float(single.data) == pytest.approx(
        float(head.logits(z[:1], z[1:])[0]), abs=backend_tolerance(1e-12))
