"""The classifier C (paper Section IV-D).

Concatenates the two latent code vectors (size 2d) and maps them
through a fully connected layer with sigmoid activation to the
probability that the *second* program is faster-or-equal (label 1).

:meth:`PairClassifier.logits` also takes plain ndarray embedding rows
and then runs the same kernels with no autograd graph — the serving
tier's warm path, where both embeddings come straight from the cache.
"""

from __future__ import annotations

import numpy as np

from ..nn import backend as nn_backend
from ..nn.layers import Linear
from ..nn.module import Module
from ..nn.tensor import Tensor

__all__ = ["PairClassifier"]


class PairClassifier(Module):
    """``sigmoid(W [z_i ; z_j] + b)`` with optional hidden layer."""

    def __init__(self, latent_size: int, hidden: int = 0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if hidden > 0:
            self.pre = Linear(2 * latent_size, hidden, rng=rng)
            self.out = Linear(hidden, 1, rng=rng)
        else:
            self.pre = None
            self.out = Linear(2 * latent_size, 1, rng=rng)

    def logit(self, z_i: Tensor, z_j: Tensor) -> Tensor:
        """Raw score (scalar tensor); positive favours label 1."""
        joint = Tensor.concat([z_i, z_j], axis=0)
        if self.pre is not None:
            joint = self.pre(joint).tanh()
        return self.out(joint)[0]

    def logits(self, z_i: Tensor | np.ndarray,
               z_j: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Batched raw scores: ``z_i``/``z_j`` are (B, d), returns (B,).

        Row ``b`` equals ``logit(z_i[b], z_j[b])`` — the whole batch
        goes through the head in one GEMM. ``Tensor`` inputs give a
        ``Tensor`` (training, autograd); ndarray inputs give an ndarray
        and build no graph, through the same backend kernels in the
        same operand order, so float64 results are bitwise-identical.
        """
        if isinstance(z_i, np.ndarray):
            kernels = nn_backend.active()
            joint = np.concatenate([kernels.asarray(z_i),
                                    kernels.asarray(z_j)], axis=1)
            if self.pre is not None:
                joint = kernels.gemm_gates(self.pre.bias.data, joint,
                                           self.pre.weight.data, "tanh")
            return kernels.gemm_gates(self.out.bias.data, joint,
                                      self.out.weight.data).reshape(-1)
        joint = Tensor.concat([z_i, z_j], axis=1)
        if self.pre is not None:
            joint = self.pre(joint).tanh()
        return self.out(joint).reshape(-1)

    def probability(self, z_i: Tensor, z_j: Tensor) -> Tensor:
        return self.logit(z_i, z_j).sigmoid()
