"""Tests for source featurization."""

import numpy as np
import pytest

from repro.core import TreeFeaturizer

SOURCE = """
#include <iostream>
using namespace std;
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 0; i < n; i++) s += i;
    cout << s << endl;
    return 0;
}
"""


class TestFeaturizer:
    def test_basic_shapes(self):
        feats = TreeFeaturizer()(SOURCE)
        n = feats.num_nodes
        assert feats.node_ids.shape == (n,)
        assert feats.adjacency.shape == (n, n)
        assert len(feats.categories) == n
        assert feats.schedule.num_nodes == n

    def test_root_is_node_zero(self):
        feats = TreeFeaturizer()(SOURCE)
        assert feats.root == 0
        assert feats.kinds[0] == "root"

    def test_ids_within_vocab(self):
        featurizer = TreeFeaturizer()
        feats = featurizer(SOURCE)
        assert feats.node_ids.max() < len(featurizer.vocab)
        assert feats.node_ids.min() >= 0

    def test_cache_returns_same_object(self):
        featurizer = TreeFeaturizer()
        assert featurizer(SOURCE) is featurizer(SOURCE)

    def test_cache_disabled(self):
        featurizer = TreeFeaturizer(cache_size=0)
        a = featurizer("int main() { return 1; }")
        b = featurizer("int main() { return 1; }")
        assert a is not b  # nothing cached
        assert a.num_nodes == b.num_nodes

    def test_cache_eviction(self):
        featurizer = TreeFeaturizer(cache_size=2)
        a = featurizer("int main() { return 1; }")
        featurizer("int main() { return 2; }")
        featurizer("int main() { return 3; }")
        assert featurizer("int main() { return 1; }") is not a

    def test_different_sources_different_trees(self):
        featurizer = TreeFeaturizer()
        a = featurizer("int main() { return 0; }")
        b = featurizer("int main() { for (;;) break; return 0; }")
        assert a.num_nodes != b.num_nodes

    def test_unparseable_raises(self):
        with pytest.raises(Exception):
            TreeFeaturizer()("not C++ at all ###")

    def test_adjacency_symmetric_normalized(self):
        feats = TreeFeaturizer()(SOURCE)
        np.testing.assert_allclose(feats.adjacency, feats.adjacency.T)
        assert np.linalg.eigvalsh(feats.adjacency).max() <= 1.0 + 1e-9


class _CollidingSource(str):
    """A source string whose hash collides with every other one."""

    def __hash__(self):
        return 7


class TestFeaturizerMemo:
    def test_hash_collision_does_not_share_features(self):
        featurizer = TreeFeaturizer()
        a = featurizer(_CollidingSource("int main() { return 0; }"))
        b = featurizer(_CollidingSource(
            "int main() { for (;;) break; return 0; }"))
        assert a is not b
        assert a.num_nodes != b.num_nodes
        assert featurizer(_CollidingSource("int main() { return 0; }")) is a


class TestAdjacencyOnDemand:
    def test_treelstm_never_builds_adjacency(self, monkeypatch):
        from repro.core import build_model
        from repro.core import features as features_module

        def forbidden(*args, **kwargs):
            raise AssertionError("adjacency built for a tree-LSTM")

        monkeypatch.setattr(features_module, "normalized_adjacency",
                            forbidden)
        model = build_model("treelstm", embedding_dim=8, hidden_size=8)
        model.embed(SOURCE)
        model.predict_probability(SOURCE, "int main() { return 0; }")

    def test_gcn_adjacency_matches_normalized_adjacency(self):
        from repro.core import build_model
        from repro.nn import normalized_adjacency

        model = build_model("gcn", embedding_dim=8, hidden_size=8)
        feats = model.featurizer(SOURCE)
        model.embed(SOURCE)
        assert "adjacency" in vars(feats)          # built by the GCN
        np.testing.assert_array_equal(
            feats.adjacency, normalized_adjacency(feats.num_nodes,
                                                  feats.edges))
        assert feats.adjacency is feats.adjacency  # built once
