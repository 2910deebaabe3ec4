"""The repo's benchmark: one command, one seeded workload per call.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 36 --trace 0

Each call sets up (cached corpus, featurized programs, models, an
in-process ``PredictionService`` and a one-worker ``ClusterServer``),
then runs the train, serve and label phases of :mod:`pipeline` over
the workload's population, checks every output, and prints as its last
stdout line ``{"correct", "attempted", "failed", "metrics"}``. The line
before it carries the run stamp (backend, thread counts, machine),
per-entry-point operation counts, sample counts and check results.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
same work twice, untraced and then under the span recorder of
:mod:`tracer`, and reports the per-layer metrics plus the tracing
overhead; its spans are written to ``perfbench/.cache/traces``.

The first call in a checkout judges the corpus into
``perfbench/.cache`` (about a minute) before anything is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CACHE = HERE / ".cache"
WORKLOADS = ("table1", "mp")
SETUP_PROBES = 4          # cold set-ups in child processes, besides our own

#: Pinned so that a seed means the same inputs in every process (the
#: collector seeds per problem from ``hash(tag)``), neither BLAS nor the
#: cnative kernels run more threads than the one CPU the run is pinned
#: to, and nothing is written outside the checkout (the cnative
#: backend's build cache).
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "REPRO_NUM_THREADS": "1",
    "REPRO_CACHE_DIR": str(CACHE / "native"),
}

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "train_small_pairs_per_s": "pairs/s", "train_paper_pairs_per_s": "pairs/s",
    "eval_pairs_per_s": "pairs/s", "heldout_accuracy": "ratio",
    "serve_p50_ms": "ms", "serve_p99_ms": "ms", "serve_req_per_s": "req/s",
    "cluster_p50_ms": "ms", "cluster_p99_ms": "ms",
    "cluster_req_per_s": "req/s", "label_subs_per_s": "subs/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-label-digests", action="store_true",
                        help="recompute perfbench/label_digests.json")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def stamp() -> dict:
    """Which configuration produced the numbers."""
    import hashlib
    import socket

    import numpy

    from repro.nn import backend as nn_backend

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    host = hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12]
    cpus = os.cpu_count() or 0
    return {
        "backend": nn_backend.describe(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro_num_threads": os.environ.get("REPRO_NUM_THREADS"),
        "nproc": cpus,
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "machine": {"hostname_hash": host, "cpu_count": cpus, "cpu": cpu,
                    "numpy": numpy.__version__,
                    "python": platform.python_version(),
                    "fingerprint": f"{host}-c{cpus}-np{numpy.__version__}"},
    }


def pin_to_one_cpu() -> None:
    """Run this process, its set-up probes and the cluster worker on one
    CPU. The serve loop is closed, so they never need two at once, and
    every hand-off between client, front door and worker then stays on
    one CPU instead of waking another: cluster latency spread less."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up seconds of fresh processes (nothing memoized yet)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def accounting(phases: dict) -> dict:
    train, serve, label = phases["train"], phases["serve"], phases["label"]
    local, cluster = serve["local"], serve["cluster"]

    def entry(attempted, failed):
        return {"attempted": attempted, "succeeded": attempted - failed,
                "failed": failed}

    return {
        "train (pairs)": entry(train["attempted"], train["failed"]),
        "serve/in-process (requests)": entry(local["requests"],
                                             local["failed"]),
        "serve/cluster (requests)": entry(cluster["requests"],
                                          cluster["failed"]),
        "label (programs)": entry(label["attempted"], label["failed"]),
    }


def checks_of(phases: dict) -> list[str]:
    return [c for name in ("train", "serve", "label")
            for c in phases[name]["checks"]]


def plain_run(pipeline, tracer, args) -> tuple[dict, dict]:
    setups = probe_setups(args.workload, args.seed)
    recorder = tracer.Recorder()
    population = pipeline.POPULATIONS[args.workload]
    with recorder.measure("setup") as timed:
        setup = pipeline.set_up(population, args.seed)
    setups.append(timed.seconds)
    try:
        stream = pipeline.build_stream(setup, args.seed)
        phases = pipeline.run_pipeline(setup, stream, args.seed,
                                       args.seconds, recorder)
    finally:
        pipeline.tear_down(setup)
    train, serve = phases["train"], phases["serve"]
    local, cluster = serve["local"], serve["cluster"]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "train_small_pairs_per_s": train["small_rate"],
        "train_paper_pairs_per_s": train["paper_rate"],
        "eval_pairs_per_s": train["eval_rate"],
        "heldout_accuracy": train["accuracy"],
        "serve_p50_ms": local["p50"], "serve_p99_ms": local["p99"],
        "serve_req_per_s": local["rate"],
        "cluster_p50_ms": cluster["p50"], "cluster_p99_ms": cluster["p99"],
        "cluster_req_per_s": cluster["rate"],
        "label_subs_per_s": phases["label"]["rate"],
    }
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in values.items()}
    details = {
        "setup_samples_s": setups,
        "samples": dict(train["samples"],
                        serve_in_process_requests=local["requests"],
                        serve_cluster_requests=cluster["requests"],
                        label_programs=phases["label"]["programs"]),
        "serve_distinct_trees": serve["distinct_trees"],
        "serve_stream_kinds": serve["stream_kinds"],
        "serve_same_tree_share": serve["same_tree_share"],
    }
    return phases, {"metrics": metrics, "details": details}


def traced_run(pipeline, tracer, args) -> tuple[dict, dict]:
    """Untraced pass over half the seconds, then the same operations
    under the recorder, so both together take about as long as a run."""
    population = pipeline.POPULATIONS[args.workload]
    plain = tracer.Recorder()
    # both passes start from empty schedule memos, or the replay would
    # skip the schedule builds the first pass paid for
    pipeline.reset_memos()
    with plain.measure("setup"):
        setup = pipeline.set_up(population, args.seed)
    try:
        stream = pipeline.build_stream(setup, args.seed)
        first = pipeline.run_pipeline(setup, stream, args.seed,
                                      args.seconds / 2, plain)
    finally:
        pipeline.tear_down(setup)
    units = first["units"]
    recorder = tracer.Recorder()
    tracer.install(recorder)
    try:
        pipeline.reset_memos()
        with recorder.measure("setup"):
            setup = pipeline.set_up(population, args.seed)
        tracer.install_instances(recorder, setup.service, setup.client)
        try:
            phases = pipeline.run_pipeline(setup, stream, args.seed,
                                           args.seconds, recorder, units)
        finally:
            pipeline.tear_down(setup)
        # a wrapper the program rebound during the run saw only part of it
        problems = recorder.verify_bound()
    finally:
        recorder.uninstall()
    stats = dict(phases["serve"]["stats"], **phases["label"]["stats"],
                 **phases["train"]["stats"])
    values, breakdown = tracer.layer_metrics(recorder, stats)
    problems += tracer.self_check(recorder, values, breakdown)
    overhead = {phase: recorder.phase_walls[phase] - plain.phase_walls[phase]
                for phase in ("train", "serve", "label")}
    values["trace.overhead_s"] = sum(overhead.values())
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / sum(
        plain.phase_walls[p] for p in overhead)
    spans_path = CACHE / "traces" / f"{args.workload}-s{args.seed}.jsonl"
    recorder.dump(spans_path)
    metrics = {name: {"value": value, "unit": tracer.unit_of(name)}
               for name, value in values.items()}
    details = {
        "trace_problems": problems,
        "overhead_s_by_phase": overhead,
        "untraced_wall_s_by_phase": dict(plain.phase_walls),
        "breakdown": breakdown,
        "predictions": tracer.PREDICTIONS,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return phases, {"metrics": metrics, "details": details,
                    "problems": problems}


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: run from the root of a checkout; no "
              f"{SRC / 'repro'} here", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable,
                  [sys.executable, str(HERE / "run.py")] + sys.argv[1:], env)
    sys.path.insert(0, str(SRC))
    import pipeline
    import tracer

    population = pipeline.POPULATIONS[args.workload]
    if args.write_label_digests:
        pipeline.write_label_digests()
        return 0
    if args.setup_probe:
        recorder = tracer.Recorder()
        with recorder.measure("setup") as timed:
            setup = pipeline.set_up(population, args.seed)
        pipeline.tear_down(setup)
        print(json.dumps({"setup_s": timed.seconds}))
        return 0
    population.corpus()            # judged once per checkout, untimed
    started = time.perf_counter()
    run = traced_run if args.trace else plain_run
    phases, report = run(pipeline, tracer, args)
    checks = checks_of(phases) + report.get("problems", [])
    entries = accounting(phases)
    attempted = sum(e["attempted"] for e in entries.values())
    failed = sum(e["failed"] for e in entries.values())
    details = dict(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, stamp=stamp(),
                   entry_points=entries, checks=checks,
                   wall_s=time.perf_counter() - started, **report["details"])
    report_path = CACHE / "reports" / (f"{args.workload}-s{args.seed}"
                                       f"-t{args.trace}.json")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(dict(details,
                                           metrics=report["metrics"]),
                                      indent=1, default=str))
    for check in checks:
        print(f"perfbench: check failed: {check}", file=sys.stderr)
    print(json.dumps(details, default=str))
    print(json.dumps({"correct": not checks, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
