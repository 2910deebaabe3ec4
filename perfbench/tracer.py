"""The benchmark's own span recorder and the per-layer breakdown.

Nothing here imports :mod:`repro.obs`: the instrument must not change
when the observability layer does. :class:`Recorder` replaces a layer's
entry point, at the name its caller resolves, with a wrapper that
records one span (name, start, end, parent, thread, phase) per call.
Spans stay in memory and are written out once, at exit.

A layer's *self time* is the time its spans cover minus the part their
child spans cover. Per phase, the self times of the spans on the main
thread plus a residual (time outside any span: the benchmark's own loop
code) add up to the phase's wall time by construction. :func:`self_check`
tests what can go wrong instead: every counter the tables below expect
on a phase moved there and every one predicted absent did not, the
residual and the self time of each pass-through entry point stay below
a stated share (time in an unwrapped layer would land there), and the
layers the benchmark's rationale says dominate a phase do.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: span name -> layer (a repo module). The wrapped entry points are
#: listed in :func:`install`.
SPAN_LAYER = {
    "lang.parse": "lang",
    "features": "core.features",
    "cache.key": "serve.cache",
    "cache.lookup": "serve.cache",
    "cache.put": "serve.cache",
    "batcher.submit": "serve.batcher",
    "batcher.wait": "serve.batcher",
    "encoder": "core.encoders",
    "head": "core.classifier",
    "service": "serve.service",
    "autograd.backward": "nn.tensor",
    "optim.step": "nn.optim",
    "optim.clip": "nn.optim",
    "engine.fit": "engine",
    "engine.eval": "engine",
    "cluster.request": "serve.cluster",
    "corpus.collect": "corpus.collector",
    "corpus.generate": "corpus.generators",
    "judge": "judge",
    "analysis.lint": "lang.analysis",
}

#: every kernel of ``repro.nn.backend`` the benchmark counts; the first
#: seven also get their own calls/busy rows
KERNELS = ("gemm_gates", "segment_sum_pair_gated", "gather_rows",
           "scatter_add_rows", "lstm_cell", "lstm_cell_backward",
           "act_backward", "segment_sum", "segment_sum_pair", "take_rows")
REPORTED_KERNELS = KERNELS[:7]
for _kernel in KERNELS:
    SPAN_LAYER[f"backend.{_kernel}"] = "nn.backend"

LAYERS = tuple(dict.fromkeys(SPAN_LAYER.values()))

#: Which end-to-end metric each layer should move, and in which phase
#: of the pipeline, fixed before any optimisation was measured.
PREDICTIONS = {
    "lang": "serve_p99_ms, cluster_p99_ms (serve); "
            "label_subs_per_s, small share (label)",
    "core.features": "serve_p99_ms (serve); setup_s (setup)",
    "serve.cache": "serve_p50_ms (serve)",
    "serve.batcher": "serve_p99_ms (serve)",
    "core.encoders": "serve_p99_ms (serve); eval_pairs_per_s and both "
                     "train rates (train)",
    "core.classifier": "serve_p50_ms, serve_req_per_s (serve)",
    "serve.service": "serve_p50_ms (serve)",
    "nn.tensor": "train_small_pairs_per_s (train)",
    "nn.backend": "calls per step: train_small_pairs_per_s; GEMM busy: "
                  "train_paper_pairs_per_s, eval_pairs_per_s (train)",
    "nn.optim": "train_small_pairs_per_s (train)",
    "engine": "both train rates (train)",
    "serve.cluster": "cluster_p50_ms, cluster_p99_ms (serve)",
    "corpus.collector": "label_subs_per_s (label)",
    "corpus.generators": "label_subs_per_s (label)",
    "judge": "label_subs_per_s (label)",
    "lang.analysis": "label_subs_per_s (label)",
}

#: Span names that must record calls in a phase; every other span name
#: must record none there. ``setup`` builds the models and boots the
#: servers; ``train``/``serve``/``label`` are the timed phases.
_FORWARD = {f"backend.{k}" for k in ("gemm_gates", "segment_sum_pair_gated",
                                     "gather_rows", "lstm_cell")}
EXPECTED_SPANS = {
    "setup": {"lang.parse", "features"},
    "train": ({"features", "encoder", "head", "autograd.backward",
               "optim.step", "optim.clip", "engine.fit", "engine.eval"}
              | {f"backend.{k}" for k in REPORTED_KERNELS}),
    "serve": ({"lang.parse", "features", "cache.key", "cache.lookup",
               "cache.put", "batcher.submit", "batcher.wait", "encoder",
               "head", "service", "cluster.request"} | _FORWARD),
    "label": {"lang.parse", "corpus.collect", "corpus.generate", "judge",
              "analysis.lint"},
}
#: backend kernels a phase may or may not reach, depending on the
#: shapes it sees (they are neither required nor forbidden)
OPTIONAL_SPANS = {f"backend.{k}" for k in KERNELS[7:]}
PHASES = tuple(EXPECTED_SPANS)

#: Per-layer metrics that come from the layers' own counters rather than
#: from spans, and must be non-zero (all are gathered in one phase).
EXPECTED_NONZERO = (
    "batcher.flushes", "batcher.items_per_flush",          # serve
    "cache.hit_ratio", "cache.evictions",                   # serve
    "features.memo_hit_ratio",                              # serve
    "cluster.worker_s", "cluster.frontdoor_s",              # serve
    "backend.pool.reuse_ratio",                             # train
    "corpus.accept_ratio",                                  # label
)
#: ... and those that must read zero: nothing is retried or refused
#: when no fault is injected.
EXPECTED_ZERO = ("cluster.retries", "cluster.failed")

#: Largest share of a phase's wall time the residual may take. Set-up
#: builds the models and boots the servers outside any wrapped layer;
#: in the timed phases every measured operation is one wrapped call.
RESIDUAL_MAX_SHARE = {"setup": 0.75, "train": 0.02, "serve": 0.02,
                      "label": 0.02}

#: Largest share of a pass-through entry point's own time that may be
#: its self time (main thread, summed over the run). These only
#: dispatch to wrapped layers, so a callee that went unwrapped (a
#: renamed or new hot function) shows here. Measured on both
#: populations: service 0.03, collect 0.03, fit 0.015, predict 0.002,
#: ticket wait 0.02, featurize 0.16, encode 0.40, backward 0.50.
SELF_MAX_SHARE = {
    "service": 0.10, "corpus.collect": 0.10, "engine.fit": 0.10,
    "engine.eval": 0.10, "batcher.wait": 0.10, "features": 0.35,
    "encoder": 0.60, "autograd.backward": 0.70,
}

#: Smallest share of a phase's wall time a layer's main-thread self time
#: must take, for the claims the workloads rest on: the judge dominates
#: labelling, kernel arithmetic dominates training, parsing is a large
#: part of serving. Measured: judge 0.83-0.94, backend 0.63-0.65,
#: lang 0.19-0.21.
MIN_SHARE = {("label", "judge"): 0.5, ("train", "nn.backend"): 0.3,
             ("serve", "lang"): 0.1}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        # [id, name, start, end, parent id, thread, phase] per span
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "idle"
        self.recording = False
        self.main_thread = threading.get_ident()
        self.phase_walls: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, by: float = 1.0) -> None:
        self.counts[key] += by

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``owner`` is the module, class or instance whose attribute the
        caller looks up. A missing attribute raises here, so a wrapper
        can never be bound to a name the program no longer has.
        ``note(recorder, args, result)`` may add counts after the call.
        """
        if name not in SPAN_LAYER:
            raise KeyError(f"span {name!r} has no layer")
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        own = vars(owner).get(attr, _ABSENT) if hasattr(owner, "__dict__") \
            else _ABSENT
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return original(*args, **kwargs)
            stack = recorder._stack()
            record = [next(recorder._ids), name, time.perf_counter(), 0.0,
                      stack[-1][0] if stack else -1,
                      threading.get_ident(), recorder.phase]
            recorder.spans.append(record)
            stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if note is not None:
                note(recorder, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, own, wrapper))

    def verify_bound(self) -> list[str]:
        """Every wrapper must still be the attribute its caller resolves."""
        return [f"{_describe(owner)}.{attr} was rebound after wrapping"
                for owner, attr, _own, wrapper in self._patches
                if getattr(owner, attr, None) is not wrapper]

    def uninstall(self) -> None:
        for owner, attr, own, _wrapper in reversed(self._patches):
            if own is _ABSENT:
                try:
                    delattr(owner, attr)
                except AttributeError:
                    pass
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    def measure(self, phase: str) -> "_Measured":
        """Time one measured operation of ``phase``; spans are recorded
        only inside such a block, so the trace covers exactly the work
        the end-to-end metrics time."""
        return _Measured(self, phase)

    # -- reduction -----------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Self seconds of every span, by span id."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        return {rec[0]: (rec[3] - rec[2]) - child[rec[0]]
                for rec in self.spans}

    def dump(self, path: Path) -> None:
        """Write every span (JSON lines) for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as handle:
            for rec in self.spans:
                handle.write(json.dumps({
                    "id": rec[0], "name": rec[1],
                    "start_s": round(rec[2] - base, 9),
                    "end_s": round(rec[3] - base, 9), "parent": rec[4],
                    "main_thread": rec[5] == self.main_thread,
                    "phase": rec[6]}) + "\n")


class _Measured:
    __slots__ = ("recorder", "phase", "started", "seconds")

    def __init__(self, recorder: Recorder, phase: str):
        self.recorder = recorder
        self.phase = phase

    def __enter__(self) -> "_Measured":
        self.recorder.phase = self.phase
        self.recorder.recording = True
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.started
        self.recorder.recording = False
        self.recorder.phase = "idle"
        self.recorder.phase_walls[self.phase] += self.seconds


_ABSENT = object()


def _describe(owner) -> str:
    return getattr(owner, "__name__", type(owner).__name__)


# ----------------------------------------------------------------------
# the entry points, wrapped at the names their callers resolve
# ----------------------------------------------------------------------
def _note_encoder(rec, args, result):
    rec.count("encoder.trees", len(args[1]))


def _note_fit(rec, args, result):
    rec.count("engine.steps", args[0].state.step)


def _note_gemm(rec, args, result):
    base, mat, weight = args[0], args[1], args[2]
    # bytes a GEMM must move at least: read its three operands, write
    # its output -- computed from array shapes, not measured
    rec.count("backend.gemm_gates.bytes",
              base.nbytes + mat.nbytes + weight.nbytes + result.nbytes)


def _note_judge(rec, args, result):
    rec.count("judge.cycles", sum(result.test_cycles))


def _note_lookup(rec, args, result):
    if result is not None:
        rec.count("cache.hits")


def install(recorder: Recorder) -> None:
    """Wrap the module- and class-level entry points of every layer.

    Per-instance entry points (the service's cache, the active kernel
    backend) are wrapped by :func:`install_instances` once they exist.
    """
    import repro.core.classifier as classifier
    import repro.core.encoders as encoders
    import repro.core.features as features
    import repro.corpus.collector as collector
    import repro.corpus.generators.base as generators
    import repro.engine.loop as loop
    import repro.judge.runner as runner
    import repro.lang.analysis as analysis
    import repro.lang.parser as parser
    import repro.nn.optim as optim
    import repro.nn.tensor as tensor
    import repro.serve.batcher as batcher
    import repro.serve.service as service

    wrap = recorder.wrap
    # the parser, under each name a caller looks it up by: the
    # featurizer, the judge, and lint's call-time import
    wrap(features, "parse", "lang.parse")
    wrap(runner, "parse", "lang.parse")
    wrap(parser, "parse", "lang.parse")
    wrap(features.TreeFeaturizer, "featurize", "features")
    wrap(service, "canonical_key", "cache.key")
    wrap(batcher.MicroBatcher, "submit", "batcher.submit")
    wrap(batcher.Ticket, "result", "batcher.wait")
    wrap(encoders.TreeLstmEncoder, "encode_batch", "encoder",
         note=_note_encoder)
    wrap(classifier.PairClassifier, "logit", "head")
    wrap(classifier.PairClassifier, "logits", "head")
    wrap(service.PredictionService, "check_regression", "service")
    wrap(service.PredictionService, "rank", "service")
    wrap(tensor.Tensor, "backward", "autograd.backward")
    wrap(optim.Adam, "step", "optim.step")
    wrap(loop, "clip_grad_norm", "optim.clip")
    wrap(loop.Engine, "fit", "engine.fit", note=_note_fit)
    wrap(loop.Engine, "predict_probabilities", "engine.eval")
    wrap(collector.Collector, "collect", "corpus.collect")
    wrap(generators.ProblemFamily, "generate", "corpus.generate")
    wrap(collector.Judge, "judge_source", "judge", note=_note_judge)
    wrap(analysis, "lint_source", "analysis.lint")


def install_instances(recorder: Recorder, service, client) -> None:
    """Wrap the active kernel backend, ``service``'s own cache, and the
    benchmark's front-door client."""
    from repro.nn import backend as nn_backend

    kernels = nn_backend.active()
    for kernel in KERNELS:
        recorder.wrap(kernels, kernel, f"backend.{kernel}",
                      note=_note_gemm if kernel == "gemm_gates" else None)
    recorder.wrap(service.cache, "get", "cache.lookup", note=_note_lookup)
    recorder.wrap(service.cache, "put", "cache.put")
    recorder.wrap(client, "request", "cluster.request")


# ----------------------------------------------------------------------
# per-layer metrics and the self-check
# ----------------------------------------------------------------------
def layer_metrics(recorder: Recorder, stats: dict) -> tuple[dict, dict]:
    """Reduce the spans to the per-layer metrics.

    ``stats`` carries the numbers the layers count themselves, as
    deltas over the traced phases (batcher flushes, pool reuse, cluster
    snapshots, accepted programs). Returns ``(metrics, breakdown)``:
    the flat per-layer metrics, and per phase the main-thread self time
    of every layer plus the residual.
    """
    self_s = recorder.self_times()
    by_id = {rec[0]: rec for rec in recorder.spans}
    calls = defaultdict(int)
    busy = defaultdict(float)
    phase_layer = defaultdict(lambda: defaultdict(float))
    phase_top = defaultdict(float)
    parse_children = defaultdict(int)
    for rec in recorder.spans:
        name = rec[1]
        calls[name] += 1
        busy[name] += self_s[rec[0]]
        if rec[5] == recorder.main_thread:
            phase_layer[rec[6]][SPAN_LAYER[name]] += self_s[rec[0]]
            if rec[4] < 0:
                phase_top[rec[6]] += rec[3] - rec[2]
        if name == "lang.parse" and rec[4] >= 0:
            parse_children[rec[4]] += 1

    def under_fit(rec) -> bool:
        parent = rec[4]
        while parent >= 0:
            up = by_id[parent]
            if up[1] == "engine.fit":
                return True
            parent = up[4]
        return False

    fit_kernel_calls = sum(1 for rec in recorder.spans
                           if rec[1].startswith("backend.")
                           and rec[6] == "train" and under_fit(rec))
    counts = recorder.counts
    feature_spans = [rec for rec in recorder.spans if rec[1] == "features"]
    memo_hits = sum(1 for rec in feature_spans if not parse_children[rec[0]])
    steps = counts["engine.steps"]
    generated = calls["corpus.generate"]
    m = {
        "lang.parse.calls": calls["lang.parse"],
        "lang.parse.busy_s": busy["lang.parse"],
        "features.calls": calls["features"],
        "features.busy_s": busy["features"],
        "features.memo_hit_ratio": _ratio(memo_hits, len(feature_spans)),
        "cache.key.busy_s": busy["cache.key"],
        "cache.lookups": calls["cache.lookup"],
        "cache.hit_ratio": _ratio(counts["cache.hits"], calls["cache.lookup"]),
        # every put inserts a key the lookup just missed, so the puts the
        # cache did not grow by are evictions
        "cache.evictions": calls["cache.put"]
        - stats.get("cache_size_delta", 0),
        "batcher.flushes": stats.get("batcher_flushes", 0),
        "batcher.items_per_flush": _ratio(stats.get("batcher_items", 0),
                                          stats.get("batcher_flushes", 0)),
        "batcher.wait_s": busy["batcher.wait"],
        "encoder.calls": calls["encoder"],
        "encoder.trees": counts["encoder.trees"],
        "encoder.busy_s": busy["encoder"],
        "head.calls": calls["head"],
        "head.busy_s": busy["head"],
        "autograd.backward.busy_s": busy["autograd.backward"],
        "backend.calls_per_step": _ratio(fit_kernel_calls, steps),
    }
    for kernel in REPORTED_KERNELS:
        m[f"backend.{kernel}.calls"] = calls[f"backend.{kernel}"]
        m[f"backend.{kernel}.busy_s"] = busy[f"backend.{kernel}"]
    m.update({
        "backend.gemm_gates.bytes": counts["backend.gemm_gates.bytes"],
        "backend.pool.reuse_ratio": _ratio(stats.get("pool_hits", 0),
                                           stats.get("pool_hits", 0)
                                           + stats.get("pool_misses", 0)),
        "optim.step.busy_s": busy["optim.step"],
        "optim.clip.busy_s": busy["optim.clip"],
        "engine.steps": steps,
        "engine.step.busy_s": busy["engine.fit"],
        "engine.eval.busy_s": busy["engine.eval"],
        "cluster.worker_s": stats.get("cluster_worker_s", 0.0),
        "cluster.frontdoor_s": stats.get("cluster_frontdoor_s", 0.0),
        "cluster.retries": stats.get("cluster_retries", 0),
        "cluster.failed": stats.get("cluster_failed", 0),
        "corpus.generate.busy_s": busy["corpus.generate"],
        "corpus.accept_ratio": _ratio(stats.get("label_accepted", 0),
                                      generated),
        "judge.calls": calls["judge"],
        "judge.busy_s": busy["judge"],
        "judge.cycles_per_s": _ratio(counts["judge.cycles"], busy["judge"]),
        "analysis.lint.busy_s": busy["analysis.lint"],
    })
    breakdown = {}
    for phase in PHASES:
        wall = recorder.phase_walls.get(phase, 0.0)
        layers = {layer: phase_layer[phase].get(layer, 0.0)
                  for layer in LAYERS}
        breakdown[phase] = {"wall_s": wall, "self_s": layers,
                            "residual_s": wall - phase_top[phase]}
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(breakdown[p]["self_s"][layer]
                                         for p in PHASES)
    m["trace.wall_s"] = sum(b["wall_s"] for b in breakdown.values())
    m["trace.residual_s"] = sum(b["residual_s"] for b in breakdown.values())
    m["trace.spans"] = len(recorder.spans)
    return m, breakdown


def self_check(recorder: Recorder, metrics: dict,
               breakdown: dict) -> list[str]:
    """Problems with the trace; an empty list means it holds."""
    problems = []
    seen = defaultdict(set)
    self_s = recorder.self_times()
    own = defaultdict(float)
    total = defaultdict(float)
    for rec in recorder.spans:
        seen[rec[6]].add(rec[1])
        if rec[5] == recorder.main_thread:
            own[rec[1]] += self_s[rec[0]]
            total[rec[1]] += rec[3] - rec[2]
    for phase, expected in EXPECTED_SPANS.items():
        for name in sorted(expected - seen[phase]):
            problems.append(f"{phase}: expected calls into {name}, saw none")
        for name in sorted(seen[phase] - expected - OPTIONAL_SPANS):
            problems.append(f"{phase}: predicted no calls into {name}, "
                            "saw some")
    for phase in set(seen) - set(PHASES):
        problems.append(f"spans recorded outside the traced phases ({phase})")
    for name in EXPECTED_NONZERO:
        if not metrics[name] > 0:
            problems.append(f"{name} is {metrics[name]}, expected > 0")
    for name in EXPECTED_ZERO:
        if metrics[name] != 0:
            problems.append(f"{name} is {metrics[name]}, expected 0")
    for phase, parts in breakdown.items():
        wall = parts["wall_s"]
        share = parts["residual_s"] / wall if wall else 0.0
        if share > RESIDUAL_MAX_SHARE[phase]:
            problems.append(f"{phase}: residual is {share:.1%} of the wall "
                            f"time, over {RESIDUAL_MAX_SHARE[phase]:.0%}")
    for name, cap in SELF_MAX_SHARE.items():
        share = own[name] / total[name] if total[name] else 0.0
        if share > cap:
            problems.append(f"{name}: self time is {share:.1%} of its span "
                            f"time, over {cap:.0%}; an unwrapped callee?")
    for (phase, layer), floor in MIN_SHARE.items():
        parts = breakdown[phase]
        share = (parts["self_s"][layer] / parts["wall_s"]
                 if parts["wall_s"] else 0.0)
        if share < floor:
            problems.append(f"{phase}: {layer} self time is {share:.1%} of "
                            f"the wall time, under {floor:.0%}")
    return problems


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


_UNIT_SUFFIXES = (
    (".calls_per_step", "calls/step"), (".items_per_flush", "items/flush"),
    (".cycles_per_s", "cycles/s"), (".bytes", "bytes"), ("_ratio", "ratio"),
    ("_s", "s"),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name; the rest are counts."""
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"
