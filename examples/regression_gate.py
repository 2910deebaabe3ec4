"""Use case: performance-aware code review (the paper's Section I).

Trains a model once on a mixed corpus and screens rewrites with
:meth:`~repro.serve.PredictionService.check_regression` — the "nightly
test" integration the paper proposes: every proposed code change is
screened statically, and likely regressions are flagged before any
dynamic run.

The demo replays a plausible development history of one file (a range
sum utility) with three successive rewrites, two harmless and one that
silently degrades complexity.

The same gating idea applied to this repository's own performance —
flagging a PR whose microbenchmarks drift out of the historical noise
band — lives in ``benchmarks/trend_check.py``.

Run:  python examples/regression_gate.py
"""

from __future__ import annotations

from repro.corpus import Collector, mp_families
from repro.core import ExperimentConfig, TrainConfig, run_experiment
from repro.serve import PredictionService

BASELINE = """
#include <bits/stdc++.h>
using namespace std;
int main() {
    int n, q; cin >> n >> q;
    vector<int> a(n, 0);
    for (int i = 0; i < n; i++) cin >> a[i];
    vector<long long> pre(n + 1, 0);
    for (int i = 0; i < n; i++) pre[i + 1] = pre[i] + a[i];
    for (int t = 0; t < q; t++) {
        int lo, hi; cin >> lo >> hi;
        cout << pre[hi + 1] - pre[lo] << endl;
    }
    return 0;
}
"""

# Rewrite 1: style-only cleanup (renames, loop form) — should pass.
REWRITE_STYLE = """
#include <bits/stdc++.h>
using namespace std;
typedef long long ll;
int main() {
    int len, q; cin >> len >> q;
    vector<int> vals(len, 0);
    int i = 0;
    while (i < len) { cin >> vals[i]; ++i; }
    vector<ll> pre(len + 1, 0);
    for (int k = 0; k < len; ++k) pre[k + 1] = pre[k] + vals[k];
    for (int t = 0; t < q; ++t) {
        int lo, hi; cin >> lo >> hi;
        cout << pre[hi + 1] - pre[lo] << endl;
    }
    return 0;
}
"""

# Rewrite 2: drops the prefix table and loops per query — a regression.
REWRITE_REGRESSION = """
#include <bits/stdc++.h>
using namespace std;
int main() {
    int n, q; cin >> n >> q;
    vector<int> a(n, 0);
    for (int i = 0; i < n; i++) cin >> a[i];
    for (int t = 0; t < q; t++) {
        int lo, hi; cin >> lo >> hi;
        long long s = 0;
        for (int j = lo; j <= hi; j++) s += a[j];
        cout << s << endl;
    }
    return 0;
}
"""


def main() -> None:
    print("== training a screening model on a mixed problem pool ==")
    families = mp_families(count=10, scale=0.4)
    db = Collector(seed=3).collect(families, per_problem=6)
    pool = [s for tag in db.problems() for s in db.submissions(tag)]
    config = ExperimentConfig(
        embedding_dim=16, hidden_size=16, train_pairs=120, eval_pairs=80,
        seed=2, train=TrainConfig(epochs=6, batch_size=16,
                                  learning_rate=8e-3))
    result = run_experiment(pool, config)
    print(f"   screening model held-out accuracy: "
          f"{result.evaluation.accuracy:.3f}")

    history = [("style-only cleanup", REWRITE_STYLE),
               ("per-query rescan rewrite", REWRITE_REGRESSION)]
    print("== screening proposed changes against the baseline ==")
    with PredictionService(result.engine.model, threaded=False) as service:
        reports = [service.check_regression(BASELINE, proposed,
                                            threshold=0.55)
                   for _, proposed in history]
    for (description, _), report in zip(history, reports):
        status = "FLAG" if report["flagged"] else "pass"
        print(f"   [{status}] {description}: "
              f"P(regression)={report['regression_probability']:.3f}")

    style_p, slow_p = (r["regression_probability"] for r in reports)
    print(f"== ranking: regression scored "
          f"{'higher' if slow_p > style_p else 'LOWER (unexpected)'} "
          f"than the style change ({slow_p:.3f} vs {style_p:.3f}) ==")


if __name__ == "__main__":
    main()
