"""Canonical-AST keys and the bounded LRU embedding cache.

The model never sees identifier names, literal values, whitespace or
comments — only simplified-AST node *kinds* and topology
(:mod:`repro.lang.simplify`). Two submissions that agree on those have
bit-identical embeddings, so the serving cache keys on a digest of
exactly that pair: the vocabulary-ID sequence (pre-order) plus the
parent array of the evaluation schedule. Reformatted or α-renamed
resubmissions — the common case in a development loop — are cache hits
without ever touching the encoder.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from threading import Lock

import numpy as np

from ..core.features import TreeFeatures
from ..obs.metrics import MetricsRegistry

__all__ = ["canonical_key", "LruCache"]


def canonical_key(features: TreeFeatures) -> str:
    """Digest of the canonicalized AST (kinds + topology).

    Pre-order numbering makes the ``(node_ids, parent)`` pair a
    canonical form: any two sources with the same simplified tree
    produce byte-identical arrays here. The digest is stored on
    ``features`` and returned as is on later calls.
    """
    key = features.cache_key
    if key is None:
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(features.node_ids,
                                           dtype=np.int64).tobytes())
        digest.update(b"|")
        digest.update(np.ascontiguousarray(features.schedule.parent,
                                           dtype=np.int64).tobytes())
        key = features.cache_key = digest.hexdigest()
    return key


class LruCache:
    """Thread-safe bounded LRU mapping (used for cached embeddings).

    ``get`` refreshes recency; inserting beyond ``capacity`` evicts the
    least-recently-used entry. ``capacity=0`` disables caching (every
    lookup misses) without callers needing a special case.

    ``admit_max_cost`` is the admission policy: a ``put`` whose ``cost``
    exceeds it is counted and dropped instead of inserted, so one giant
    entry (a huge AST's embedding) cannot evict a whole working set of
    small ones. ``None`` admits everything; entries whose ``cost`` the
    caller does not know are always admitted.

    Counters live on a :class:`repro.obs.metrics.MetricsRegistry`
    (shared via ``registry``, private when omitted); ``hits`` /
    ``misses`` / ``rejected`` stay readable as attributes and
    ``stats()`` keeps its historical keys — both are now views over the
    registry families.
    """

    def __init__(self, capacity: int = 1024,
                 admit_max_cost: int | None = None,
                 registry: MetricsRegistry | None = None):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if admit_max_cost is not None and admit_max_cost < 1:
            raise ValueError("admit_max_cost must be positive (or None)")
        self.capacity = capacity
        self.admit_max_cost = admit_max_cost
        self._data: "OrderedDict[str, object]" = OrderedDict()
        self._lock = Lock()
        self.registry = registry or MetricsRegistry()
        # get() is the hottest call in the serving tier, so it counts
        # with plain ints under the lock it already holds; _publish()
        # pushes the totals into the registry counters whenever anyone
        # actually reads them (stats(), a scrape, a snapshot poll)
        self._hits_n = 0
        self._misses_n = 0
        self._rejected_n = 0
        self._published = {"hits": 0, "misses": 0, "rejected": 0}
        self._hit_ctr = self.registry.counter(
            "repro_serve_cache_hits_total",
            "embedding cache lookups served from cache").labels()
        self._miss_ctr = self.registry.counter(
            "repro_serve_cache_misses_total",
            "embedding cache lookups that required an encode").labels()
        self._rejected_ctr = self.registry.counter(
            "repro_serve_cache_rejected_total",
            "inserts dropped by the admission policy").labels()
        self._size_gauge = self.registry.gauge(
            "repro_serve_cache_size", "entries currently cached")
        self.registry.gauge(
            "repro_serve_cache_capacity", "configured cache capacity",
            agg="last").set(capacity)

    def _publish(self) -> None:
        """Fold the int counters into the registry families (delta-wise,
        so repeated publishes are idempotent)."""
        with self._lock:
            totals = {"hits": self._hits_n, "misses": self._misses_n,
                      "rejected": self._rejected_n}
            for name, child in (("hits", self._hit_ctr),
                                ("misses", self._miss_ctr),
                                ("rejected", self._rejected_ctr)):
                delta = totals[name] - self._published[name]
                if delta:
                    child.inc(delta)
                    self._published[name] = totals[name]
            self._size_gauge.set(len(self._data))

    @property
    def hits(self) -> int:
        return self._hits_n

    @property
    def misses(self) -> int:
        return self._misses_n

    @property
    def rejected(self) -> int:
        return self._rejected_n

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: str):
        """Value for ``key`` or ``None``; updates recency and counters."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits_n += 1
                return self._data[key]
            self._misses_n += 1
            return None

    def put(self, key: str, value, cost: int | None = None) -> None:
        """Insert ``value`` unless the admission policy rejects it.

        ``cost`` is the caller's size measure (node count for embedding
        entries); it is only compared against ``admit_max_cost``, not
        stored.
        """
        if self.capacity == 0:
            return
        if (self.admit_max_cost is not None and cost is not None
                and cost > self.admit_max_cost):
            with self._lock:
                self._rejected_n += 1
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> dict:
        """Historical stats view — keys unchanged; also publishes the
        hot-path counters into the registry families."""
        self._publish()
        hits, misses, rejected = self.hits, self.misses, self.rejected
        with self._lock:
            size = len(self._data)
        total = hits + misses
        return {
            "size": size, "capacity": self.capacity,
            "hits": hits, "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
            "admit_max_cost": self.admit_max_cost,
            "rejected": rejected,
        }
