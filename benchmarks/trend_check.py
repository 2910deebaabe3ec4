"""Cross-PR perf-trend gate over the repo's ``BENCH_PR*.json`` series.

The repository carries one microbenchmark artifact per PR (written by
``benchmarks/run_microbench.py``). This script reads the **whole
series**, builds a per-benchmark history of mean times, and warns when
the newest point drifts out of the history's noise band — the
repo-level analogue of the per-change regression check
(``PredictionService.check_regression``) that
``examples/regression_gate.py`` demonstrates on source code.

The band is robust rather than parametric: for each benchmark with
enough history, the reference is the median of all *earlier* points
and the half-width is ``max(band_mads * 1.4826 * MAD, band_floor *
median)`` — a scaled median-absolute-deviation with a relative floor
so a perfectly flat history doesn't flag 1% jitter. Regressions
(latest above the band) are warnings; improvements below the band are
reported as informational only.

Two artifact schemas feed the series: pytest-benchmark payloads (a
``benchmarks`` list of ``{name, stats.mean}``) and the cluster
chaos-load artifact (``scenario: "cluster_chaos_load"``), whose
throughput folds in as a synthetic ``cluster_chaos_load::s_per_request``
benchmark — seconds per answered request, so "latest above the band"
still reads as a regression. Unrecognized artifacts are skipped. Exit
code is 0 unless ``--strict`` is given and at least one regression was
flagged::

    python benchmarks/trend_check.py             # report only
    python benchmarks/trend_check.py --strict    # CI gate
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_ARTIFACT = re.compile(r"BENCH_PR(\d+)\.json$")

__all__ = ["load_series", "load_machines", "check_drift", "chaos_points",
           "main"]

#: synthetic benchmark name for the chaos-load artifact's throughput
CHAOS_BENCH = "cluster_chaos_load::s_per_request"


def chaos_points(payload: dict) -> dict[str, float]:
    """``name -> mean_seconds`` extracted from a chaos-load artifact.

    The artifact records aggregate throughput, not per-call stats;
    seconds-per-answered-request is the mean-time equivalent (bigger is
    slower, same as every other series). Prefers the direct
    ``wall_s / answered`` quotient and falls back to ``1 /
    throughput_rps`` for artifacts that only carry the rate.
    """
    if payload.get("scenario") != "cluster_chaos_load":
        return {}
    try:
        answered = float(payload["answered"])
        wall = float(payload["wall_s"])
        if answered > 0 and wall > 0:
            return {CHAOS_BENCH: wall / answered}
    except (KeyError, TypeError, ValueError):
        pass
    try:
        rate = float(payload["throughput_rps"])
        if rate > 0:
            return {CHAOS_BENCH: 1.0 / rate}
    except (KeyError, TypeError, ValueError):
        pass
    return {}


def load_series(root: Path) -> dict[str, list[tuple[int, float]]]:
    """``benchmark name -> [(pr, mean_seconds), ...]`` sorted by PR.

    Reads every ``BENCH_PR<n>.json`` under ``root``: pytest-benchmark
    payloads contribute their per-benchmark means, chaos-load payloads
    contribute :data:`CHAOS_BENCH`; anything else is ignored.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for path in sorted(Path(root).glob("BENCH_PR*.json")):
        match = _ARTIFACT.search(path.name)
        if not match:
            continue
        pr = int(match.group(1))
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict):
            continue
        for name, mean in chaos_points(payload).items():
            series.setdefault(name, []).append((pr, mean))
        benches = payload.get("benchmarks")
        if not isinstance(benches, list):
            continue
        for bench in benches:
            try:
                name = bench["name"]
                mean = float(bench["stats"]["mean"])
            except (KeyError, TypeError, ValueError):
                continue
            series.setdefault(name, []).append((pr, mean))
    for points in series.values():
        points.sort()
    return series


def load_machines(root: Path) -> dict[int, str]:
    """``pr -> machine fingerprint`` for every stamped artifact.

    ``run_microbench.py`` stamps a ``machine.fingerprint`` string
    (hashed hostname + CPU count + numpy version) into each artifact;
    older artifacts predate the stamp and simply don't appear here.
    """
    machines: dict[int, str] = {}
    for path in sorted(Path(root).glob("BENCH_PR*.json")):
        match = _ARTIFACT.search(path.name)
        if not match:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict):
            continue
        machine = payload.get("machine")
        if isinstance(machine, dict):
            fingerprint = machine.get("fingerprint")
            if isinstance(fingerprint, str) and fingerprint:
                machines[int(match.group(1))] = fingerprint
    return machines


def check_drift(series: dict[str, list[tuple[int, float]]],
                min_history: int = 3, band_mads: float = 4.0,
                band_floor: float = 0.25,
                machines: dict[int, str] | None = None) -> list[dict]:
    """Findings for every benchmark whose newest point leaves the band.

    ``min_history`` earlier points are required before judging (fewer
    and the artifact is still establishing its baseline). Each finding
    carries ``kind`` (``"regression"`` or ``"improvement"``), the
    offending PR/mean, and the band it left.

    When ``machines`` is given (``pr -> fingerprint``, see
    :func:`load_machines`), each series' history is restricted to points
    produced on the **same machine** as its newest point — a hardware
    change would otherwise read as a perf cliff. A newest point with no
    fingerprint (pre-stamp artifact) keeps the full history, since
    nothing can be attributed either way.
    """
    findings = []
    for name, points in sorted(series.items()):
        if machines:
            latest_fp = machines.get(points[-1][0])
            if latest_fp is not None:
                points = [(pr, mean) for pr, mean in points
                          if machines.get(pr) == latest_fp]
        if len(points) < min_history + 1:
            continue
        history = [mean for _, mean in points[:-1]]
        latest_pr, latest = points[-1]
        median = statistics.median(history)
        mad = statistics.median(abs(m - median) for m in history)
        band = max(band_mads * 1.4826 * mad, band_floor * median)
        if latest > median + band:
            kind = "regression"
        elif latest < median - band:
            kind = "improvement"
        else:
            continue
        findings.append({
            "name": name, "kind": kind, "pr": latest_pr,
            "latest_s": latest, "median_s": median, "band_s": band,
            "ratio": latest / median if median else float("inf"),
        })
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="directory holding the BENCH_PR*.json series")
    parser.add_argument("--min-history", type=int, default=3,
                        help="earlier points required before judging")
    parser.add_argument("--band-mads", type=float, default=4.0)
    parser.add_argument("--band-floor", type=float, default=0.25,
                        help="relative floor on the band half-width")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when a regression is flagged; also "
                             "restricts each history to artifacts from "
                             "the newest point's machine")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON instead of text")
    args = parser.parse_args(argv)

    series = load_series(args.root)
    machines = load_machines(args.root) if args.strict else None
    findings = check_drift(series, min_history=args.min_history,
                           band_mads=args.band_mads,
                           band_floor=args.band_floor,
                           machines=machines)
    regressions = [f for f in findings if f["kind"] == "regression"]
    if args.json:
        print(json.dumps({"benchmarks_tracked": len(series),
                          "findings": findings}, indent=2))
    else:
        print(f"{len(series)} benchmark series tracked")
        if not findings:
            print("all benchmarks inside their noise bands")
        for f in findings:
            arrow = "slower" if f["kind"] == "regression" else "faster"
            print(f"[{f['kind'].upper()}] {f['name']} @ PR{f['pr']}: "
                  f"{f['latest_s'] * 1e3:.2f}ms vs median "
                  f"{f['median_s'] * 1e3:.2f}ms "
                  f"(x{f['ratio']:.2f}, {arrow}; band "
                  f"±{f['band_s'] * 1e3:.2f}ms)")
    return 1 if (args.strict and regressions) else 0


if __name__ == "__main__":
    raise SystemExit(main())
