"""Robustness workload #1: provably-dead mutants vs every encoder kind.

ROADMAP item 4 asks how stable the comparative model is under
*semantics-preserving* program perturbations. Dead-code-insertion
mutants from :mod:`repro.lang.analysis.mutate` are the strongest
possible version of that question: every mutant is (a) liveness-proven
dead by construction and (b) judge-verified byte-equivalent to its
original on seeded inputs — so any change in the model's output is
pure representational sensitivity, not a real performance signal.

For each encoder kind the workload reports, over all
(original, mutant) pairs:

``mean_abs_shift`` / ``max_abs_shift``
    |P(mutant slower than original) - 0.5|: an ideal model says 0.5
    (the programs are equivalent).
``flag_rate``
    fraction of pairs a
    :meth:`~repro.serve.PredictionService.check_regression`-style
    threshold would flag as regressions — false alarms by construction.
``mean_embedding_drift``
    relative L2 drift of the latent code vector.
``mean_cosine``
    cosine similarity between original and mutant embeddings.

Run as a script to write the JSON artifact::

    PYTHONPATH=src python benchmarks/robustness_mutants.py --out ROBUST.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.core import ENCODER_KINDS, build_model
from repro.corpus import Style, family_for_tag
from repro.judge import differential_check, seeded_inputs
from repro.lang.analysis import (
    MutationProofError, generate_dead_mutants, prove_dead,
)

__all__ = ["WorkloadError", "build_mutant_pairs", "measure_encoder",
           "run_workload", "main"]

DEFAULT_TAGS = ("A", "C", "G")


class WorkloadError(RuntimeError):
    """A mutant failed one of the two equivalence legs — the workload
    refuses to report robustness numbers against an unproven mutant."""


def build_mutant_pairs(tags=DEFAULT_TAGS, per_tag: int = 2,
                       mutants_per_program: int = 3, scale: float = 0.4,
                       seed: int = 929, inputs_per_problem: int = 8):
    """``(original, mutant, meta)`` triples, equivalence-proven twice.

    Every returned mutant has passed :func:`prove_dead` (static leg)
    and exact-stdout differential execution on ``inputs_per_problem``
    seeded judge inputs (dynamic leg). A failure of either leg raises
    :class:`WorkloadError` — bad mutants must never dilute the metric.
    """
    pairs = []
    for tag in tags:
        family = family_for_tag(tag, scale=scale, num_tests=2,
                                seed=seed % 997)
        inputs = seeded_inputs(family, count=inputs_per_problem,
                               seed=seed ^ 0xD1FF)
        rng = np.random.default_rng(seed + sum(ord(c) for c in tag))
        for index in range(per_tag):
            solution = family.emit_solution(rng, Style(rng))
            mutants = generate_dead_mutants(
                solution.source, seed=seed + index,
                count=mutants_per_program)
            for mutant in mutants:
                try:
                    prove_dead(mutant)
                except MutationProofError as error:
                    raise WorkloadError(
                        f"{tag}: static proof failed: {error}") from error
                report = differential_check(solution.source, mutant.source,
                                            inputs)
                if not report.equivalent:
                    raise WorkloadError(
                        f"{tag}: mutant diverged on seeded inputs: "
                        f"{report.failures}")
                pairs.append((solution.source, mutant.source, {
                    "tag": tag, "kind": mutant.kind,
                    "description": mutant.description,
                    "inputs_run": report.inputs_run}))
    return pairs


def measure_encoder(kind: str, pairs, threshold: float = 0.7,
                    embedding_dim: int = 16, hidden_size: int = 16,
                    seed: int = 0) -> dict:
    """Robustness metrics of one encoder kind over the mutant pairs."""
    if not pairs:
        raise ValueError("no mutant pairs to score")
    model = build_model(encoder_kind=kind, embedding_dim=embedding_dim,
                        hidden_size=hidden_size, seed=seed)
    shifts, flags, drifts, cosines = [], [], [], []
    for original, mutant, _meta in pairs:
        p = model.predict_probability(mutant, original)
        shifts.append(abs(p - 0.5))
        flags.append(p >= threshold)
        a = model.embed(original)
        b = model.embed(mutant)
        scale = float(np.linalg.norm(a)) or 1.0
        drifts.append(float(np.linalg.norm(a - b)) / scale)
        denom = (np.linalg.norm(a) * np.linalg.norm(b)) or 1.0
        cosines.append(float(np.dot(a, b) / denom))
    return {
        "pairs": len(pairs),
        "mean_abs_shift": float(np.mean(shifts)),
        "max_abs_shift": float(np.max(shifts)),
        "flag_rate": float(np.mean(flags)),
        "mean_embedding_drift": float(np.mean(drifts)),
        "mean_cosine": float(np.mean(cosines)),
    }


def run_workload(tags=DEFAULT_TAGS, per_tag: int = 2,
                 mutants_per_program: int = 3, scale: float = 0.4,
                 seed: int = 929, inputs_per_problem: int = 8,
                 encoder_kinds=ENCODER_KINDS, threshold: float = 0.7,
                 embedding_dim: int = 16, hidden_size: int = 16) -> dict:
    pairs = build_mutant_pairs(tags=tags, per_tag=per_tag,
                               mutants_per_program=mutants_per_program,
                               scale=scale, seed=seed,
                               inputs_per_problem=inputs_per_problem)
    kinds: dict[str, int] = {}
    for _, _, meta in pairs:
        kinds[meta["kind"]] = kinds.get(meta["kind"], 0) + 1
    return {
        "workload": "dead_code_mutants",
        "tags": list(tags),
        "pairs": len(pairs),
        "inputs_per_problem": inputs_per_problem,
        "mutation_kinds": kinds,
        "threshold": threshold,
        "per_encoder": {
            kind: measure_encoder(kind, pairs, threshold=threshold,
                                  embedding_dim=embedding_dim,
                                  hidden_size=hidden_size)
            for kind in encoder_kinds},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tags", nargs="+", default=list(DEFAULT_TAGS))
    parser.add_argument("--per-tag", type=int, default=2)
    parser.add_argument("--mutants", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=929)
    parser.add_argument("--inputs", type=int, default=8)
    parser.add_argument("--threshold", type=float, default=0.7)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)
    report = run_workload(tags=tuple(args.tags), per_tag=args.per_tag,
                          mutants_per_program=args.mutants,
                          scale=args.scale, seed=args.seed,
                          inputs_per_problem=args.inputs,
                          threshold=args.threshold)
    payload = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"robustness report -> {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
