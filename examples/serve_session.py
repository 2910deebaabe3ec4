"""Use case: a resident prediction service inside a dev loop.

The offline CLI answers one query per process; this demo shows the
online half (:mod:`repro.serve`): train once, checkpoint, boot a
:class:`~repro.serve.PredictionService`, and stream queries at it the
way an editor plugin or CI bot would — repeated sources, reformatted
resubmissions, and candidate ranking. Afterwards the service's own
counters show what the canonical-AST cache and the forest micro-batcher
saved.

Run:  python examples/serve_session.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.corpus import Collector, family_for_tag
from repro.core import ExperimentConfig, TrainConfig, run_experiment
from repro.serve import PredictionService, save_checkpoint

BASELINE = """
#include <bits/stdc++.h>
using namespace std;
int main() {
    int n; cin >> n;
    vector<int> v(n, 0);
    for (int i = 0; i < n; i++) cin >> v[i];
    sort(v.begin(), v.end());
    cout << v[n / 2] << endl;
    return 0;
}
"""

# The same program with renamed variables and shuffled whitespace:
# identical canonical AST -> cache hit, no re-encode.
BASELINE_REFORMATTED = """
#include <bits/stdc++.h>
using namespace std;
int main() {
    int count;
    cin >> count;
    vector<int> xs(count, 0);
    for (int i = 0; i < count; i++)
        cin >> xs[i];
    sort(xs.begin(), xs.end());
    cout << xs[count / 2] << endl;
    return 0;
}
"""

QUADRATIC_REWRITE = """
#include <bits/stdc++.h>
using namespace std;
int main() {
    int n; cin >> n;
    vector<int> v(n, 0);
    for (int i = 0; i < n; i++) cin >> v[i];
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++)
            if (v[j] < v[i]) { int t = v[i]; v[i] = v[j]; v[j] = t; }
    cout << v[n / 2] << endl;
    return 0;
}
"""


def main() -> None:
    print("== train once ==")
    family = family_for_tag("C", scale=0.35)
    db = Collector(seed=7).collect([family], per_problem=18)
    result = run_experiment(
        db.submissions("C"),
        ExperimentConfig(train_pairs=80, eval_pairs=40, embedding_dim=16,
                         hidden_size=16,
                         train=TrainConfig(epochs=4, batch_size=16)))
    print(f"held-out accuracy: {result.evaluation.accuracy:.3f}")

    checkpoint = Path(tempfile.mkdtemp()) / "model.npz"
    save_checkpoint(result.engine.model, checkpoint,
                    extra={"accuracy": result.evaluation.accuracy})
    print(f"checkpoint -> {checkpoint}")

    print("\n== serve a session ==")
    with PredictionService.from_checkpoint(checkpoint,
                                           threaded=False) as service:
        started = time.perf_counter()
        report = service.check_regression(BASELINE, QUADRATIC_REWRITE,
                                          threshold=0.6)
        print(f"quadratic rewrite: P(slower)={report['regression_probability']:.3f}"
              f" flagged={report['flagged']}")
        report = service.check_regression(BASELINE, BASELINE_REFORMATTED,
                                          threshold=0.6)
        print(f"reformat-only rewrite: P(slower)="
              f"{report['regression_probability']:.3f}"
              f" flagged={report['flagged']}")
        ranking = service.rank([QUADRATIC_REWRITE, BASELINE,
                                BASELINE_REFORMATTED])
        print("ranking (fastest first):",
              [entry["candidate"] for entry in ranking])
        # a burst of repeated queries: all cache hits after the first
        for _ in range(20):
            service.compare(BASELINE, QUADRATIC_REWRITE)
        elapsed = time.perf_counter() - started
        stats = service.stats()
        print(f"\n{stats['requests']['total']} requests in {elapsed*1e3:.1f} ms")
        print(f"cache: {stats['cache']['hits']} hits / "
              f"{stats['cache']['misses']} misses "
              f"(hit rate {stats['cache']['hit_rate']:.2f})")
        print(f"encoder saw {stats['encoder']['trees_encoded']} trees in "
              f"{stats['batcher']['batches']} fused batches")


if __name__ == "__main__":
    main()
