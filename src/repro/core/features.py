"""Source -> model-ready tree features (the paper's "Input Processing").

:class:`TreeFeaturizer` runs the full frontend (parse -> simplify ->
flatten -> vocabulary encoding) and precomputes the evaluation schedule
for the tree-LSTM; the GCN's dense normalized adjacency is built on
first use only. Featurized trees are cached by source text: the corpus
pairs reuse the same submissions many times. Tree-LSTM schedules are
additionally memoized on tree *structure*
(:func:`repro.nn.treelstm.schedule_for`), so two submissions with the
same AST shape share one schedule object.

:func:`pack_forest` fuses a mini-batch of featurized trees into one
:class:`ForestFeatures` — concatenated node IDs plus a merged
:class:`~repro.nn.treelstm.ForestSchedule` — so the encoder runs a
single level-batched pass over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..lang.parser import parse
from ..lang.simplify import flatten, simplify
from ..lang.vocab import NodeVocab
from ..nn.gcn import normalized_adjacency
from ..nn.treelstm import ForestSchedule, TreeSchedule, schedule_for

__all__ = ["TreeFeatures", "TreeFeaturizer", "ForestFeatures", "pack_forest"]


@dataclass
class TreeFeatures:
    """Everything the encoders need about one submission's AST."""

    node_ids: np.ndarray          # (n,) vocabulary IDs
    schedule: TreeSchedule        # tree-LSTM evaluation order
    edges: list[tuple[int, int]]  # (parent, child) links
    categories: list[str]         # Fig. 7 colour groups
    kinds: list[str]
    # memo of repro.serve.cache.canonical_key: the featurizer returns
    # this same instance for a repeated source, so a tree is hashed once
    cache_key: str | None = field(default=None, repr=False, compare=False)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """(n, n) normalized adjacency for the GCN, built on first read:
        a dense n x n matrix per memoized tree is the featurizer's
        largest allocation, and only the GCN encoder needs it."""
        return normalized_adjacency(self.num_nodes, self.edges)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def root(self) -> int:
        return int(self.schedule.roots[0])


@dataclass
class ForestFeatures:
    """A mini-batch of trees packed into one fused encoder input.

    ``node_ids`` concatenates the member trees' vocabulary IDs in order;
    ``schedule`` is their merged level schedule. ``trees`` keeps the
    original per-tree features (the GCN baseline still consumes them
    one adjacency at a time).
    """

    node_ids: np.ndarray          # (N_total,) vocabulary IDs
    schedule: ForestSchedule      # merged tree-LSTM evaluation order
    trees: list[TreeFeatures]

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])


_FOREST_CACHE: dict[tuple[int, ...], ForestSchedule] = {}
_FOREST_CACHE_SIZE = 512


def _forest_schedule_for(schedules: list[TreeSchedule]) -> ForestSchedule:
    # Keyed on member identity: per-tree schedules are themselves
    # memoized by structure (schedule_for), so a recurring batch
    # composition (fixed eval sets, repeated benchmark steps) reuses
    # the merged schedule. Safe because ForestSchedule holds strong
    # references to its members, so a live cache entry pins the ids.
    key = tuple(id(s) for s in schedules)
    forest = _FOREST_CACHE.get(key)
    if forest is None:
        forest = ForestSchedule(schedules)
        if len(_FOREST_CACHE) >= _FOREST_CACHE_SIZE:
            _FOREST_CACHE.pop(next(iter(_FOREST_CACHE)))
        _FOREST_CACHE[key] = forest
    return forest


def pack_forest(trees: list[TreeFeatures]) -> ForestFeatures:
    """Concatenate a batch of featurized trees into one forest.

    Packing is pure index arithmetic on the already-built per-tree
    schedules; the fused encode is numerically equivalent to encoding
    each tree alone (verified by the equivalence test-suite). Merged
    schedules are memoized, so re-packing a recurring batch is free.
    """
    if not trees:
        raise ValueError("cannot pack an empty batch of trees")
    return ForestFeatures(
        node_ids=np.concatenate([t.node_ids for t in trees]),
        schedule=_forest_schedule_for([t.schedule for t in trees]),
        trees=list(trees),
    )


class TreeFeaturizer:
    """Stateful featurizer sharing one vocabulary across the corpus."""

    def __init__(self, vocab: NodeVocab | None = None, cache_size: int = 4096):
        self.vocab = vocab if vocab is not None else NodeVocab(frozen=True)
        self._cache: dict[str, TreeFeatures] = {}
        self._cache_size = cache_size

    def __call__(self, source: str) -> TreeFeatures:
        return self.featurize(source)

    def featurize(self, source: str) -> TreeFeatures:
        # keyed by the text itself: two sources whose hashes collide
        # must not share features
        hit = self._cache.get(source)
        if hit is not None:
            return hit
        flat = flatten(simplify(parse(source)))
        features = TreeFeatures(
            node_ids=np.asarray(self.vocab.encode_all(flat.kinds),
                                dtype=np.int64),
            schedule=schedule_for(flat.children),
            edges=flat.edges,
            categories=flat.categories,
            kinds=flat.kinds,
        )
        if self._cache_size > 0:
            if len(self._cache) >= self._cache_size:
                self._cache.pop(next(iter(self._cache)))
            self._cache[source] = features
        return features
