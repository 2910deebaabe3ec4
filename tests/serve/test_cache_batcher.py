"""Unit tests: canonical AST keys, the LRU cache, and the micro-batcher."""

import threading
import time

import numpy as np
import pytest

from repro.core import TreeFeaturizer
from repro.serve import LruCache, MicroBatcher, canonical_key

SRC = "int main() { int x = 1; return x; }"
SRC_REFORMATTED = """
int main() {
    int x = 1;
    return x;
}
"""
SRC_RENAMED = "int main() { int total = 1; return total; }"
SRC_DIFFERENT = "int main() { int x = 1; int y = 2; return x + y; }"


class TestCanonicalKey:
    @pytest.fixture(scope="class")
    def featurizer(self):
        return TreeFeaturizer()

    def test_formatting_is_canonicalized_away(self, featurizer):
        assert canonical_key(featurizer(SRC)) == \
            canonical_key(featurizer(SRC_REFORMATTED))

    def test_alpha_renaming_is_canonicalized_away(self, featurizer):
        """The model only sees node kinds, so renamed identifiers share
        an embedding — and must share a cache key."""
        assert canonical_key(featurizer(SRC)) == \
            canonical_key(featurizer(SRC_RENAMED))

    def test_structural_change_changes_key(self, featurizer):
        assert canonical_key(featurizer(SRC)) != \
            canonical_key(featurizer(SRC_DIFFERENT))

    def test_key_is_stable_across_featurizers(self):
        assert canonical_key(TreeFeaturizer()(SRC)) == \
            canonical_key(TreeFeaturizer()(SRC))

    def test_key_is_stored_on_the_features(self):
        """A second call returns the stored digest, which equals a fresh
        digest of an independently featurized copy of the tree."""
        features = TreeFeaturizer()(SRC)
        first = canonical_key(features)
        assert features.cache_key is first
        assert canonical_key(features) is first
        assert first == canonical_key(TreeFeaturizer()(SRC))


class TestLruCache:
    def test_hit_miss_counters(self):
        cache = LruCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refresh a
        cache.put("c", 3)                # evicts b
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)               # a becomes most recent
        cache.put("c", 3)                # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(-1)


class TestAdmissionPolicy:
    def test_giant_entry_cannot_evict_working_set(self):
        """One oversized tree must not push a working set of small ones
        out of the LRU — it is simply never admitted."""
        cache = LruCache(3, admit_max_cost=100)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper(), cost=10)
        cache.put("giant", "G", cost=5000)       # rejected, no eviction
        assert "giant" not in cache
        assert all(key in cache for key in ("a", "b", "c"))
        assert cache.stats()["rejected"] == 1
        assert cache.stats()["admit_max_cost"] == 100

    def test_at_threshold_is_admitted(self):
        cache = LruCache(4, admit_max_cost=100)
        cache.put("edge", 1, cost=100)           # == threshold: admitted
        assert cache.get("edge") == 1
        assert cache.stats()["rejected"] == 0

    def test_unknown_cost_is_admitted(self):
        cache = LruCache(4, admit_max_cost=10)
        cache.put("unsized", 1)                  # no cost supplied
        assert cache.get("unsized") == 1

    def test_no_threshold_admits_everything(self):
        cache = LruCache(4)
        cache.put("huge", 1, cost=10 ** 9)
        assert cache.get("huge") == 1
        assert cache.stats()["admit_max_cost"] is None

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            LruCache(4, admit_max_cost=0)


def rows_for(items):
    """Toy encode: row i carries items[i] so demux is checkable."""
    return np.asarray([[float(x)] for x in items])


class TestMicroBatcherInline:
    def test_result_triggers_flush_and_demuxes(self):
        with MicroBatcher(rows_for, max_batch=8, start=False) as batcher:
            tickets = [batcher.submit(v) for v in (3, 1, 2)]
            assert batcher.pending() == 3
            values = [t.result()[0] for t in tickets]
        assert values == [3.0, 1.0, 2.0]

    def test_single_fused_call_for_whole_backlog(self):
        calls = []

        def spy(items):
            calls.append(len(items))
            return rows_for(items)

        with MicroBatcher(spy, max_batch=32, start=False) as batcher:
            tickets = [batcher.submit(v) for v in range(10)]
            tickets[0].result()          # one inline flush drains all 10
        assert calls == [10]

    def test_max_batch_caps_each_fused_call(self):
        calls = []

        def spy(items):
            calls.append(len(items))
            return rows_for(items)

        with MicroBatcher(spy, max_batch=4, start=False) as batcher:
            tickets = [batcher.submit(v) for v in range(10)]
            assert batcher.flush() == 10
            assert all(t.done() for t in tickets)
        assert calls == [4, 4, 2]

    def test_identical_items_encoded_once(self):
        calls = []

        def spy(items):
            calls.append(len(items))
            return rows_for(items)

        item = 7  # same object submitted three times
        with MicroBatcher(spy, max_batch=8, start=False) as batcher:
            tickets = [batcher.submit(item) for _ in range(3)]
            tickets += [batcher.submit(9)]
            values = [t.result()[0] for t in tickets]
        assert calls == [2]              # 2 unique, not 4
        assert values == [7.0, 7.0, 7.0, 9.0]
        assert batcher.stats()["items"] == 4
        assert batcher.stats()["unique_items"] == 2

    def test_encode_error_propagates_to_every_ticket(self):
        def boom(items):
            raise RuntimeError("encoder exploded")

        with MicroBatcher(boom, max_batch=8, start=False) as batcher:
            tickets = [batcher.submit(v) for v in range(3)]
            for t in tickets:
                with pytest.raises(RuntimeError, match="exploded"):
                    t.result()

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(rows_for, start=False)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(rows_for, max_batch=0, start=False)
        with pytest.raises(ValueError):
            MicroBatcher(rows_for, max_delay_ms=-1.0, start=False)


class TestMicroBatcherThreaded:
    def test_size_trigger_coalesces_concurrent_submitters(self):
        calls = []

        def spy(items):
            calls.append(len(items))
            return rows_for(items)

        # long delay: only the size trigger can flush this fast
        with MicroBatcher(spy, max_batch=8, max_delay_ms=5000.0) as batcher:
            results = [None] * 8

            def client(i):
                results[i] = batcher.submit(i).result(timeout=10.0)[0]

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == [float(i) for i in range(8)]
        assert calls == [8]              # one fused flush, size-triggered

    def test_latency_trigger_flushes_partial_batch(self):
        with MicroBatcher(rows_for, max_batch=64,
                          max_delay_ms=10.0) as batcher:
            started = time.monotonic()
            value = batcher.submit(5).result(timeout=10.0)[0]
            waited = time.monotonic() - started
        assert value == 5.0
        assert waited < 5.0              # deadline fired, nobody waited forever

    def test_close_flushes_tail(self):
        batcher = MicroBatcher(rows_for, max_batch=64, max_delay_ms=5000.0)
        ticket = batcher.submit(2)
        batcher.close()                  # must not strand the pending item
        assert ticket.result(timeout=1.0)[0] == 2.0


class TestBackpressureCounters:
    def test_queue_depth_high_water_mark(self):
        with MicroBatcher(rows_for, max_batch=32, start=False) as batcher:
            tickets = [batcher.submit(v) for v in range(5)]
            assert batcher.stats()["queue_depth_hwm"] == 5
            batcher.flush()
            for t in tickets:
                t.result()
            # the mark records the worst backlog ever, not the current one
            assert batcher.stats()["queue_depth_hwm"] == 5
            assert batcher.stats()["pending"] == 0

    def test_inline_flush_trigger_counted(self):
        with MicroBatcher(rows_for, max_batch=4, start=False) as batcher:
            for v in range(10):
                batcher.submit(v)
            batcher.flush()
        triggers = batcher.stats()["flush_triggers"]
        assert triggers["inline"] == 3           # 4 + 4 + 2
        assert triggers["size"] == triggers["latency"] == 0

    def test_size_trigger_counted(self):
        with MicroBatcher(rows_for, max_batch=4,
                          max_delay_ms=5000.0) as batcher:
            tickets = [batcher.submit(v) for v in range(4)]
            for t in tickets:
                t.result(timeout=10.0)
            assert batcher.stats()["flush_triggers"]["size"] == 1
            assert batcher.stats()["flush_triggers"]["latency"] == 0

    def test_latency_trigger_counted(self):
        with MicroBatcher(rows_for, max_batch=64,
                          max_delay_ms=5.0) as batcher:
            batcher.submit(1).result(timeout=10.0)
            assert batcher.stats()["flush_triggers"]["latency"] == 1
            assert batcher.stats()["flush_triggers"]["size"] == 0
