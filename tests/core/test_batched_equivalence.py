"""Forest-batched encoding must match per-tree encoding exactly.

The tentpole guarantee of the fused batch path: packing a mini-batch
into one forest (`pack_forest` -> one level-batched encoder sweep ->
batched classifier head) is a *re-grouping* of the same arithmetic, so
logits, probabilities, and whole training runs must agree with the
sequential per-tree implementation to numerical noise.
"""

import numpy as np
import pytest

from repro.core import TrainConfig, build_model, pack_forest
from repro.data import sample_pairs
from repro.engine import Engine
from repro.nn import Tensor, bce_with_logits

from ..helpers import backend_tolerance

DIRECTIONS = ("uni", "bi", "alternating")


class SequentialEngine(Engine):
    """Reference engine: the pre-forest per-pair loss (one encoder
    invocation per tree), used as the ground truth for equivalence.
    ``sequential_batches`` counts the batches it scored, so a test can
    prove ``fit`` really went through this objective."""

    sequential_batches = 0

    def _batch_loss(self, batch):
        self.sequential_batches += 1
        logits = [self.model.pair_logit(fi, fj) for fi, fj, _ in batch]
        targets = np.array([label for _, _, label in batch], dtype=float)
        return bce_with_logits(Tensor.stack(logits, axis=0), targets)


def _pairs(corpus, n, seed=0):
    return sample_pairs(corpus, n, np.random.default_rng(seed))


class TestLogitEquivalence:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_treelstm_batched_matches_sequential(self, corpus_c, direction,
                                                 layers):
        model = build_model(embedding_dim=10, hidden_size=10,
                            num_layers=layers, direction=direction, seed=3)
        feats = [(model.featurizer(p.first.source),
                  model.featurizer(p.second.source))
                 for p in _pairs(corpus_c, 6)]
        batched = model.pair_logits(feats)
        sequential = np.array([model.pair_logit(*f).item() for f in feats])
        np.testing.assert_allclose(batched.data, sequential, atol=backend_tolerance(1e-8))

    def test_gcn_batched_matches_sequential(self, corpus_c):
        model = build_model("gcn", embedding_dim=10, hidden_size=10,
                            num_layers=2, seed=3)
        feats = [(model.featurizer(p.first.source),
                  model.featurizer(p.second.source))
                 for p in _pairs(corpus_c, 6)]
        batched = model.pair_logits(feats)
        sequential = np.array([model.pair_logit(*f).item() for f in feats])
        np.testing.assert_allclose(batched.data, sequential, atol=backend_tolerance(1e-8))

    def test_pack_forest_roundtrip(self, corpus_c):
        model = build_model(embedding_dim=8, hidden_size=8)
        trees = [model.featurizer(s.source) for s in corpus_c[:5]]
        packed = pack_forest(trees)
        assert packed.num_trees == 5
        assert packed.num_nodes == sum(t.num_nodes for t in trees)
        offs = packed.schedule.tree_offsets
        for t, tree in enumerate(trees):
            np.testing.assert_array_equal(
                packed.node_ids[offs[t]:offs[t + 1]], tree.node_ids)

    def test_predict_probabilities_batch_size_invariant(self, corpus_c):
        model = build_model(embedding_dim=8, hidden_size=8, seed=1)
        engine = Engine(model)
        pairs = _pairs(corpus_c, 10, seed=4)
        p_big = engine.predict_probabilities(pairs, batch_size=10)
        p_small = engine.predict_probabilities(pairs, batch_size=3)
        p_one = engine.predict_probabilities(pairs, batch_size=1)
        np.testing.assert_allclose(p_big, p_small, atol=backend_tolerance(1e-8))
        np.testing.assert_allclose(p_big, p_one, atol=backend_tolerance(1e-8))

    def test_predict_probabilities_rejects_bad_batch_size(self, corpus_c):
        model = build_model(embedding_dim=8, hidden_size=8)
        engine = Engine(model)
        pairs = _pairs(corpus_c, 2)
        with pytest.raises(ValueError, match="positive"):
            engine.predict_probabilities(pairs, batch_size=-1)
        with pytest.raises(ValueError, match="positive"):
            engine.predict_probabilities(pairs, batch_size=0)
        with pytest.raises(ValueError, match="positive"):
            model.embed_batch([pairs[0].first.source], batch_size=0)


class TestTrainingEquivalence:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_fit_matches_sequential_reference(self, corpus_c, direction):
        """Same seeds => same per-epoch losses and same final logits,
        whether batches are encoded as one forest or tree by tree."""
        pairs = _pairs(corpus_c, 12, seed=2)
        config = TrainConfig(epochs=2, batch_size=4, seed=7)

        model_a = build_model(embedding_dim=8, hidden_size=8, num_layers=2,
                              direction=direction, seed=9)
        model_b = build_model(embedding_dim=8, hidden_size=8, num_layers=2,
                              direction=direction, seed=9)
        hist_batched = Engine(model_a, config).fit(pairs)
        sequential = SequentialEngine(model_b, config)
        hist_sequential = sequential.fit(pairs)
        # 12 pairs in batches of 4 for 2 epochs
        assert sequential.sequential_batches == 6

        np.testing.assert_allclose(hist_batched.losses,
                                   hist_sequential.losses, atol=backend_tolerance(1e-7))
        feats = [(model_a.featurizer(p.first.source),
                  model_a.featurizer(p.second.source)) for p in pairs[:4]]
        za = model_a.pair_logits(feats).data
        zb = np.array([model_b.pair_logit(*f).item() for f in feats])
        np.testing.assert_allclose(za, zb, atol=backend_tolerance(1e-6))
