"""Micro-benchmarks of the pipeline's hot paths (throughput numbers).

Not a paper artifact — these quantify the substrate itself: frontend
parsing, featurization, one tree-LSTM encode, one training step, and
one judged execution. Useful for tracking performance regressions in
the reproduction.
"""

import numpy as np
import pytest

from benchmarks.synthetic import SOURCE, variants
from repro.core import TrainConfig, build_model
from repro.data import sample_pairs
from repro.engine import Engine
from repro.judge import Judge, MachineProfile
from repro.lang import parse


def test_bench_parse(benchmark):
    unit = benchmark(parse, SOURCE)
    assert unit.functions


def test_bench_featurize(benchmark):
    from repro.core import TreeFeaturizer

    featurizer = TreeFeaturizer(cache_size=0)  # disable caching entirely

    def featurize():
        return featurizer(SOURCE)

    feats = benchmark(featurize)
    assert feats.num_nodes > 20


def test_bench_treelstm_encode(benchmark):
    model = build_model(embedding_dim=16, hidden_size=16)
    feats = model.featurizer(SOURCE)

    def encode():
        return model.encoder(feats)

    z = benchmark(encode)
    assert z.shape == (16,)


def test_bench_training_step(benchmark, table1_db):
    subs = table1_db.submissions("C")
    pairs = sample_pairs(subs, 8, np.random.default_rng(0))
    model = build_model(embedding_dim=16, hidden_size=16)
    engine = Engine(model, TrainConfig(epochs=1, batch_size=8))
    prepared = engine._featurize_pairs(pairs)

    def step():
        engine.optimizer.zero_grad()
        loss = engine._batch_loss(prepared)
        loss.backward()
        engine.optimizer.step()
        return loss

    # 5 warm-up rounds: the grad-buffer pool and allocator arenas take
    # ~4 steps to reach steady state (step 1 runs ~3x slower), and a
    # real epoch is hundreds of steady-state steps — that is the
    # number this benchmark tracks.
    loss = benchmark.pedantic(step, rounds=5, iterations=1,
                              warmup_rounds=5)
    assert np.isfinite(loss.item())


def test_bench_forest_encode(benchmark):
    """Pairs/sec of the fused forward path at batch 16 (32 trees per
    call, one forest). No corpus needed: 16 structurally distinct pairs
    are built by varying the synthetic source. (The pre-PR4 version of
    this benchmark replaced a line that did not exist, so every
    "variant" was byte-identical to SOURCE; variant trees are slightly
    bigger now, which makes this metric conservative vs BENCH_PR1.)"""
    model = build_model(embedding_dim=16, hidden_size=16)
    feats = [(model.featurizer(SOURCE), model.featurizer(v))
             for v in variants(16)]

    def encode_batch():
        return model.pair_logits(feats)

    logits = benchmark(encode_batch)
    assert logits.shape == (16,)
    try:
        benchmark.extra_info["pairs_per_sec"] = 16.0 / benchmark.stats.stats.mean
    except (AttributeError, TypeError):  # stats API varies across versions
        pass


def test_bench_full_epoch(benchmark, table1_db):
    """One full training epoch (featurization excluded): 24 pairs at
    batch 8, i.e. three fused forest steps per round."""
    subs = table1_db.submissions("C")
    pairs = sample_pairs(subs, 24, np.random.default_rng(1))
    model = build_model(embedding_dim=16, hidden_size=16)
    engine = Engine(model, TrainConfig(epochs=1, batch_size=8, seed=0))
    engine._featurize_pairs(pairs)  # warm the featurizer cache

    def epoch():
        return engine.fit(pairs)

    history = benchmark.pedantic(epoch, rounds=3, iterations=1,
                                 warmup_rounds=1)
    assert len(history.losses) == 1
    assert np.isfinite(history.losses[0])


def test_bench_segment_sum_fused(benchmark):
    """The fused per-level child aggregation of the forest encode: h~ and
    sum(f*c) bucketed in ONE segment sweep (forward + backward), at a
    realistic deep-forest level size (3k edges -> 1.2k parents, h=16)."""
    from repro.nn.tensor import Tensor
    from repro.nn.treelstm import _segment_sum_pair

    rng = np.random.default_rng(0)
    edges, parents, hidden = 3000, 1200, 16
    seg = np.sort(rng.integers(0, parents, edges)).astype(np.int64)
    h_children = Tensor(rng.standard_normal((edges, hidden)),
                        requires_grad=True)
    fc_children = Tensor(rng.standard_normal((edges, hidden)),
                         requires_grad=True)

    def level_aggregate():
        h_children.zero_grad()
        fc_children.zero_grad()
        h_tilde, fc = _segment_sum_pair(h_children, fc_children, seg,
                                        parents)
        (h_tilde.sum() + fc.sum()).backward()
        return h_tilde

    h_tilde = benchmark(level_aggregate)
    assert h_tilde.shape == (parents, hidden)
    assert h_children.grad is not None


def test_bench_judge_execution(benchmark):
    judge = Judge(machine=MachineProfile(cycles_per_ms=2000.0))
    from repro.judge import TestCase as JudgeTest

    n = 200
    values = list(range(n, 0, -1))
    expected = str(sum(v * i for i, v in enumerate(sorted(values))))
    test = JudgeTest(f"{n}\n" + " ".join(map(str, values)), expected)

    report = benchmark.pedantic(
        lambda: judge.judge_source(SOURCE, [test]), rounds=3, iterations=1,
        warmup_rounds=1)
    assert report.verdict.value == "OK"
