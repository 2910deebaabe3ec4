"""Use case: selecting the best algorithm among alternatives.

The paper's first motivating use case: given several candidate
implementations of the same problem, rank them by expected performance
*without running them*. We train on one problem, then rank three unseen
candidate solutions of another problem in the same algorithmic group by
round-robin pairwise comparison — and finally reveal the judge-measured
runtimes to score the ranking.

Run:  python examples/algorithm_selection.py
"""

from __future__ import annotations

import numpy as np

from repro.corpus import Collector, family_for_tag
from repro.core import ExperimentConfig, TrainConfig, run_experiment
from repro.judge import Judge, MachineProfile


def round_robin_rank(model, sources: list[str]) -> list[int]:
    """Order candidate indices from fastest to slowest by total wins."""
    n = len(sources)
    wins = [0.0] * n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # P(label=1) = P(source_i slower than source_j)
            wins[j] += model.predict_probability(sources[i], sources[j])
    return sorted(range(n), key=lambda k: wins[k], reverse=True)


def main() -> None:
    print("== training on problem F (subtree sizes, DFS group) ==")
    train_family = family_for_tag("F", scale=0.4, num_tests=3)
    db = Collector(seed=5).collect([train_family], per_problem=26)
    config = ExperimentConfig(
        embedding_dim=16, hidden_size=16, train_pairs=110, eval_pairs=70,
        seed=4, train=TrainConfig(epochs=6, batch_size=16,
                                  learning_rate=8e-3))
    result = run_experiment(db.submissions("F"), config)
    print(f"   same-problem accuracy: {result.evaluation.accuracy:.3f}")

    print("== ranking unseen candidates for problem G (BFS depths) ==")
    candidate_family = family_for_tag("G", scale=1.6, num_tests=3)
    rng = np.random.default_rng(11)
    candidates = []
    while len(candidates) < 3:
        sol = candidate_family.generate(rng)
        if all(sol.variant != c[0] for c in candidates):
            candidates.append((sol.variant, sol.source))
    spec = candidate_family.spec()
    judge = Judge(machine=MachineProfile(cycles_per_ms=2000.0, seed=1),
                  time_limit_ms=spec.time_limit_ms)
    measured = [judge.judge_source(src, spec.tests).mean_runtime_ms
                for _, src in candidates]

    ranking = round_robin_rank(result.engine.model,
                               [src for _, src in candidates])
    print("   model ranking (fastest first) vs judge-measured runtimes:")
    for place, idx in enumerate(ranking, start=1):
        print(f"   {place}. {candidates[idx][0]:<16} "
              f"measured {measured[idx]:.1f} ms")
    true_worst = int(np.argmax(measured))
    avoided = "yes" if ranking[-1] == true_worst else "no"
    print(f"   -> model ranked the measured-slowest variant last: {avoided}")
    print("   (separating two same-complexity variants is beyond static "
          "analysis; dodging the asymptotically worse one is the win)")


if __name__ == "__main__":
    main()
