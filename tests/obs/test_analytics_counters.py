"""Columnar-engine counters: totals, depth histogram, reconciliation."""

import random

import pytest

NUM_SETS = 8
ASSOC = 8


def make_stream(n, seed=0):
    rng = random.Random(seed)
    footprint = 2 * NUM_SETS * ASSOC
    return [rng.randrange(footprint) for _ in range(n)]


def lanes():
    from repro.core.ipv import lip_ipv, lru_ipv

    rng = random.Random(5)
    return [
        tuple(lru_ipv(ASSOC).entries),
        tuple(lip_ipv(ASSOC).entries),
        tuple(rng.randrange(ASSOC) for _ in range(ASSOC + 1)),
    ]


@pytest.fixture
def batch_run():
    from repro.engine.columnar import BatchSimulator

    stream = make_stream(4_000, seed=1)
    simulator = BatchSimulator(NUM_SETS, ASSOC, lanes())
    misses, miss_indices = simulator.run(
        stream, collect_miss_indices=True, counters=True
    )
    return stream, simulator, misses, miss_indices


class TestBatchCounters:
    def test_reconciles_with_scalar_cache(self, batch_run):
        from repro.cache import SetAssociativeCache
        from repro.core.ipv import IPV
        from repro.obs.analytics import reconcile_with_stats
        from repro.policies import GIPPRPolicy

        stream, simulator, misses, _ = batch_run
        counters = simulator.counters
        for lane, entries in enumerate(lanes()):
            policy = GIPPRPolicy(
                NUM_SETS, ASSOC, ipv=IPV(list(entries)), kernel="walk"
            )
            cache = SetAssociativeCache(
                NUM_SETS, ASSOC, policy, block_size=1
            )
            for address in stream:
                cache.access(address)
            assert reconcile_with_stats(counters, lane, cache.stats) == []
            totals = counters.totals(lane)
            assert totals["measured_misses"] == int(misses[lane])
            assert totals["fills"] == totals["misses"]
            assert totals["hit_rate"] == pytest.approx(
                totals["hits"] / totals["accesses"]
            )

    def test_counters_do_not_perturb_misses(self):
        from repro.engine.columnar import BatchSimulator

        stream = make_stream(3_000, seed=2)
        simulator = BatchSimulator(NUM_SETS, ASSOC, lanes())
        plain = simulator.run(stream)
        assert simulator.counters is None
        counted = simulator.run(stream, counters=True)
        assert (plain == counted).all()
        assert simulator.counters is not None

    def test_set_accesses_match_bincount(self, batch_run):
        stream, simulator, _, _ = batch_run
        counters = simulator.counters
        mask = NUM_SETS - 1
        expected = [0] * NUM_SETS
        for address in stream:
            expected[address & mask] += 1
        assert list(counters.set_accesses) == expected

    def test_depth_histogram_sums_to_hits_when_exhaustive(self):
        from repro.engine.columnar import BatchSimulator

        stream = make_stream(2_000, seed=3)
        simulator = BatchSimulator(NUM_SETS, ASSOC, lanes())
        simulator.run(stream, counters=True, depth_sample=1)
        counters = simulator.counters
        for lane in range(len(lanes())):
            assert (
                sum(counters.hit_depth_histogram(lane))
                == counters.totals(lane)["hits"]
            )

    def test_rejects_bad_depth_sample(self):
        from repro.engine.columnar import BatchSimulator

        simulator = BatchSimulator(NUM_SETS, ASSOC, lanes())
        with pytest.raises(ValueError, match="depth_sample"):
            simulator.run(make_stream(100), counters=True, depth_sample=0)

    def test_reconcile_reports_mismatch(self, batch_run):
        from repro.obs.analytics import reconcile_with_stats

        _, simulator, _, _ = batch_run

        class FakeStats:
            accesses = hits = misses = evictions = 0

        with pytest.raises(ValueError, match="does not reconcile"):
            reconcile_with_stats(simulator.counters, 0, FakeStats())
        problems = reconcile_with_stats(
            simulator.counters, 0, FakeStats(), raise_on_mismatch=False
        )
        assert problems and problems[0].startswith("accesses")
