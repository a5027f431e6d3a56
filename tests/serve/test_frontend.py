"""Unit tests for the sharded serving front-end.

Covers the queueing contract (ingest sheds on full queues, drain bounds
work per call, process is lossless), the accounting surfaces
(``ShardResult`` snapshots, ``totals`` passing ``sanity_check``) and the
geometry/engine validation — the bit-identity contract itself lives in
``tests/verify/test_serving_goldens.py`` and the soak battery.
"""

import pytest

from repro.cache.stats import CacheStats
from repro.core.ipv import lru_ipv
from repro.serve.frontend import (
    DEFAULT_MAX_QUEUE_BATCHES,
    ShardedFrontend,
    ShardResult,
)

NUM_SETS = 16
ASSOC = 4
ENTRIES = tuple(lru_ipv(ASSOC).entries)


def make(shards=4, engine="scalar", **kw):
    return ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=shards, engine=engine, **kw
    )


def batch_hitting_all_shards(n=64):
    """Addresses 0..n-1 walk every set, hence every shard."""
    return list(range(n))


class TestValidation:
    def test_num_sets_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ShardedFrontend(12, ASSOC, ENTRIES)

    def test_shards_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="shards"):
            make(shards=3)

    def test_shards_cannot_exceed_sets(self):
        with pytest.raises(ValueError, match="split"):
            make(shards=2 * NUM_SETS)

    def test_engine_name_checked(self):
        with pytest.raises(ValueError, match="engine"):
            make(engine="quantum")

    def test_queue_bound_positive(self):
        with pytest.raises(ValueError, match="max_queue_batches"):
            make(max_queue_batches=0)

    def test_auto_engine_resolves(self):
        assert make(engine="auto").engine == "columnar"
        wide = ShardedFrontend(NUM_SETS, 32, lru_ipv(32).entries,
                               engine="auto")
        assert wide.engine == "scalar"  # no tables above 16 ways


class TestBackpressure:
    def test_ingest_sheds_when_queue_full(self):
        fe = make(shards=1, max_queue_batches=2)
        batch = batch_hitting_all_shards()
        assert fe.ingest(batch) == 0
        assert fe.ingest(batch) == 0
        shed = fe.ingest(batch)  # third sub-batch overflows the queue
        assert shed == len(batch)
        assert fe.shed_accesses == len(batch)
        assert fe.queued_batches == 2

    def test_shed_is_per_shard(self):
        fe = make(shards=4, max_queue_batches=1)
        batch = batch_hitting_all_shards()
        assert fe.ingest(batch) == 0
        assert fe.ingest(batch) == len(batch)  # all four queues full
        results = fe.shard_results()
        assert [r.shed_accesses for r in results] == [16, 16, 16, 16]

    def test_shed_batches_are_not_simulated(self):
        fe = make(shards=1, max_queue_batches=1)
        batch = batch_hitting_all_shards()
        fe.ingest(batch)
        fe.ingest(batch)  # shed
        fe.drain()
        assert fe.accesses == len(batch)
        assert fe.shed_accesses == len(batch)

    def test_default_queue_bound(self):
        fe = make()
        assert fe.max_queue_batches == DEFAULT_MAX_QUEUE_BATCHES


class TestDrain:
    def test_drain_max_batches_bounds_work(self):
        fe = make(shards=4, max_queue_batches=8)
        batch = batch_hitting_all_shards()
        fe.ingest(batch)
        fe.ingest(batch)  # 8 queued sub-batches total
        assert fe.queued_batches == 8
        fe.drain(max_batches=3)
        assert fe.queued_batches == 5
        fe.drain()
        assert fe.queued_batches == 0
        assert fe.accesses == 2 * len(batch)

    def test_drain_returns_misses(self):
        fe = make(shards=2)
        batch = batch_hitting_all_shards()
        fe.ingest(batch)
        misses = fe.drain()
        # 64 distinct lines into 16x4 = exactly capacity: all cold.
        assert misses == len(batch)

    def test_drain_empty_is_noop(self):
        fe = make()
        assert fe.drain() == 0
        assert fe.accesses == 0


class TestProcessAndAccounting:
    def test_process_is_lossless_even_with_tiny_queues(self):
        fe = make(shards=4, max_queue_batches=1)
        batch = batch_hitting_all_shards()
        for _ in range(5):
            fe.process(batch)
        assert fe.shed_accesses == 0
        assert fe.accesses == 5 * len(batch)

    def test_shard_results_snapshot_shape(self):
        fe = make(shards=2)
        fe.process(batch_hitting_all_shards())
        results = fe.shard_results()
        assert [r.shard for r in results] == [0, 1]
        for r in results:
            assert isinstance(r, ShardResult)
            snap = r.snapshot()
            assert snap["shard"] == r.shard
            assert snap["queued_batches"] == 0
            assert snap["shed_accesses"] == 0
            assert snap["accesses"] == 32

    def test_shard_stats_pass_sanity_check(self):
        fe = make(shards=4)
        for _ in range(3):
            fe.process(batch_hitting_all_shards())
        for r in fe.shard_results():
            r.stats.sanity_check()
        totals = fe.totals()
        totals.sanity_check()
        assert isinstance(totals, CacheStats)
        assert totals.accesses == fe.accesses == 3 * 64
        assert totals.misses == fe.misses
        # Second and third passes hit (working set == capacity, LRU).
        assert totals.hits == 2 * 64

    def test_evictions_counted_after_capacity(self):
        fe = make(shards=1)
        fe.process(list(range(128)))  # 2x capacity: second half evicts
        totals = fe.totals()
        totals.sanity_check()
        assert totals.misses == 128
        assert totals.evictions == 64

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_scalar_sharding_is_bit_identical(self, shards):
        stream = [(i * 0x9E3779B97F4A7C15) & ((1 << 62) - 1)
                  for i in range(2000)] * 2
        ref = make(shards=1)
        ref.process(stream)
        fe = make(shards=shards)
        fe.process(stream)
        assert fe.misses == ref.misses
        assert fe.accesses == ref.accesses


class TestColumnarParity:
    def test_columnar_frontend_matches_scalar(self):
        import numpy as np

        rng = np.random.default_rng(42)
        stream = rng.integers(0, 1 << 20, size=5000, dtype=np.int64)
        scalar = make(shards=1, engine="scalar")
        scalar.process(list(int(a) for a in stream))
        columnar = make(shards=4, engine="columnar")
        for lo in range(0, len(stream), 1024):
            columnar.process(stream[lo:lo + 1024])
        assert columnar.misses == scalar.misses
        a, b = columnar.totals().snapshot(), scalar.totals().snapshot()
        for field in ("accesses", "hits", "misses", "evictions",
                      "bypasses", "miss_rate"):
            assert a[field] == b[field], field
