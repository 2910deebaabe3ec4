"""Use case: inspecting what the model learned (the paper's Fig. 7).

Trains a small model on submissions from three problems, then projects
(a) the node-type embedding table and (b) per-submission code
embeddings to 2-D with the built-in t-SNE, rendering both as ASCII
scatter plots. Watch for: operators clustering away from literals in
(a); the three problems forming separate clouds in (b).

Run:  python examples/embedding_atlas.py
"""

from __future__ import annotations

from repro.corpus import Collector, family_for_tag
from repro.core import ExperimentConfig, TrainConfig, run_experiment
from repro.viz import code_embedding_map, node_embedding_atlas, scatter_plot


def main() -> None:
    print("== building corpora for problems C, F, H ==")
    tags = ("C", "F", "H")
    families = [family_for_tag(t, scale=0.35, num_tests=2) for t in tags]
    db = Collector(seed=9).collect(families, per_problem=12)
    pool = [s for t in tags for s in db.submissions(t)]

    print("== training a mixed model ==")
    config = ExperimentConfig(
        embedding_dim=16, hidden_size=16, train_pairs=100, eval_pairs=60,
        seed=6, train=TrainConfig(epochs=5, batch_size=16,
                                  learning_rate=8e-3))
    result = run_experiment(pool, config)
    model = result.engine.model
    print(f"   mixed-pool accuracy: {result.evaluation.accuracy:.3f}")

    print("== Fig.7a: node-type embeddings by syntactic category ==")
    atlas = node_embedding_atlas(model, n_iter=250, seed=0)
    print(scatter_plot(atlas.points, atlas.categories,
                       title="node embeddings"))

    print("== Fig.7b: code embeddings by problem ==")
    groups = {t: db.submissions(t)[:10] for t in tags}
    points, labels = code_embedding_map(model, groups, n_iter=250, seed=0)
    print(scatter_plot(points, labels, title="code embeddings"))


if __name__ == "__main__":
    main()
