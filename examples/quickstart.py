"""Quickstart: predict which of two programs is faster — statically.

This walks the paper's whole pipeline in one file:

1. generate an annotated corpus for one problem (the simulated
   Codeforces platform judges every submission);
2. form labelled code pairs (eq. 1);
3. train the tree-LSTM comparative model;
4. ask it about two programs it has never seen.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.corpus import Collector, family_for_tag
from repro.core import ExperimentConfig, TrainConfig, run_experiment

FAST_PROGRAM = """
#include <bits/stdc++.h>
using namespace std;
int main() {
    int n; cin >> n;
    vector<pair<int, int>> v(n);
    for (int i = 0; i < n; i++) {
        int a, b; cin >> a >> b;
        v[i].first = b; v[i].second = a;
    }
    sort(v.begin(), v.end());
    int taken = 0, last = -1;
    for (int i = 0; i < n; i++)
        if (v[i].second > last) { taken++; last = v[i].first; }
    cout << taken << endl;
    return 0;
}
"""

SLOW_PROGRAM = """
#include <bits/stdc++.h>
using namespace std;
int main() {
    int n; cin >> n;
    vector<int> st(n, 0), en(n, 0), used(n, 0);
    for (int i = 0; i < n; i++) cin >> st[i] >> en[i];
    int taken = 0, last = -1;
    while (true) {
        int pick = -1, bestEnd = 2000000000;
        for (int j = 0; j < n; j++)
            if (used[j] == 0 && st[j] > last && en[j] < bestEnd) {
                pick = j; bestEnd = en[j];
            }
        if (pick < 0) break;
        used[pick] = 1; last = en[pick]; taken++;
    }
    cout << taken << endl;
    return 0;
}
"""


def main() -> None:
    print("== 1. building an annotated corpus (simulated judge) ==")
    family = family_for_tag("C", scale=0.4, num_tests=3)
    db = Collector(seed=7).collect([family], per_problem=28)
    subs = db.submissions("C")
    runtimes = sorted(s.mean_runtime_ms for s in subs)
    print(f"   {len(subs)} accepted submissions, runtimes "
          f"{runtimes[0]:.0f}..{runtimes[-1]:.0f} ms")

    print("== 2+3. pairing and training the tree-LSTM model ==")
    config = ExperimentConfig(
        encoder_kind="treelstm", embedding_dim=16, hidden_size=16,
        train_pairs=100, eval_pairs=80, seed=1,
        train=TrainConfig(epochs=6, batch_size=16, learning_rate=8e-3))
    result = run_experiment(subs, config)
    print(f"   held-out accuracy={result.evaluation.accuracy:.3f} "
          f"AUC={result.evaluation.auc:.3f}")

    print("== 4. asking about two unseen programs ==")
    model = result.engine.model
    p = model.predict_probability(SLOW_PROGRAM, FAST_PROGRAM)
    print(f"   P(quadratic scan is slower than sort+sweep) = {p:.3f}")
    p_rev = model.predict_probability(FAST_PROGRAM, SLOW_PROGRAM)
    print(f"   P(sort+sweep is slower than quadratic scan) = {p_rev:.3f}")
    verdict = "correct" if p > p_rev else "NOT what we expected"
    print(f"   -> the model ranks the quadratic version slower: {verdict}")


if __name__ == "__main__":
    main()
