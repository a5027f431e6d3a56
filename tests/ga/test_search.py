"""Tests for the GA, random search, hill climbing and the fitness memo."""

import random

import pytest

from repro.core.ipv import IPV, lru_ipv
from repro.eval.config import default_config
from repro.ga import (
    FitnessEvaluator,
    FitnessMemo,
    GAResult,
    crossover,
    evolve_ipv,
    hill_climb,
    mutate,
    random_search,
)


@pytest.fixture(scope="module")
def evaluator():
    config = default_config(trace_length=4000)
    return FitnessEvaluator(
        ["462.libquantum", "482.sphinx3", "447.dealII"], config=config
    )


class TestOperators:
    def test_crossover_prefix_suffix(self):
        rng = random.Random(0)
        a = tuple(range(17))
        b = tuple(16 - i for i in range(17))
        child = crossover(a, b, rng)
        assert len(child) == 17
        # Child must be a prefix of a followed by a suffix of b.
        cut = next(i for i in range(17) if child[i] != a[i])
        assert child[:cut] == a[:cut]
        assert child[cut:] == b[cut:]

    def test_crossover_length_mismatch(self):
        with pytest.raises(ValueError):
            crossover((1, 2), (1, 2, 3), random.Random(0))

    def test_mutate_changes_at_most_one_entry(self):
        rng = random.Random(1)
        base = tuple([3] * 17)
        for _ in range(100):
            mutated = mutate(base, 16, rng, rate=1.0)
            diffs = sum(x != y for x, y in zip(base, mutated))
            assert diffs <= 1
            assert all(0 <= e < 16 for e in mutated)

    def test_mutate_rate_zero_is_identity(self):
        rng = random.Random(2)
        base = tuple(range(16)) + (0,)
        assert mutate(base, 16, rng, rate=0.0) == base


class TestGeneticAlgorithm:
    def test_evolves_better_than_lru_on_thrash_mix(self, evaluator):
        """On a thrash-dominated training set the GA must find a vector
        beating the LRU vector — the paper's core proof of concept."""
        result = evolve_ipv(
            evaluator,
            population_size=16,
            initial_population_size=32,
            generations=5,
            seed=3,
            seeds=[lru_ipv(16)],
        )
        assert isinstance(result, GAResult)
        lru_fitness = evaluator.evaluate(lru_ipv(16))
        assert result.best_fitness > lru_fitness
        assert result.best_fitness == pytest.approx(
            evaluator.evaluate(result.best)
        )

    def test_history_is_monotone(self, evaluator):
        """Elitism makes the best-per-generation non-decreasing."""
        result = evolve_ipv(
            evaluator, population_size=10, generations=4, seed=5
        )
        assert all(
            b >= a for a, b in zip(result.history, result.history[1:])
        )

    def test_deterministic_for_seed(self, evaluator):
        a = evolve_ipv(evaluator, population_size=8, generations=2, seed=9)
        b = evolve_ipv(evaluator, population_size=8, generations=2, seed=9)
        assert a.best == b.best

    def test_seed_vectors_injected(self, evaluator):
        """A very strong seed must survive elitism to the final answer."""
        strong = IPV([0] * 16 + [15])
        result = evolve_ipv(
            evaluator,
            population_size=8,
            initial_population_size=8,
            generations=1,
            seed=1,
            seeds=[strong],
        )
        assert result.best_fitness >= evaluator.evaluate(strong) - 1e-9

    @pytest.mark.parametrize("kwargs, message", [
        ({"population_size": 0}, "population_size must be at least 1"),
        ({"population_size": -3}, "population_size must be at least 1"),
        ({"generations": -1}, "generations must be non-negative"),
        ({"initial_population_size": 0},
         "initial_population_size must be at least 1"),
    ])
    def test_rejects_empty_population_or_negative_generations(
        self, kwargs, message
    ):
        """Bad sizes raise before any fitness is evaluated."""
        stub = _StubEvaluator(k=4)
        with pytest.raises(ValueError, match=message):
            evolve_ipv(stub, **{"population_size": 4, **kwargs})
        assert stub.calls == 0


class TestParallelism:
    def test_ga_workers_match_serial(self, evaluator):
        serial = evolve_ipv(
            evaluator, population_size=8, generations=2, seed=11, workers=0
        )
        parallel = evolve_ipv(
            evaluator, population_size=8, generations=2, seed=11, workers=2
        )
        assert serial.best == parallel.best
        assert serial.best_fitness == pytest.approx(parallel.best_fitness)

    def test_random_search_workers_match_serial(self, evaluator):
        serial = random_search(evaluator, samples=12, seed=2, workers=0)
        parallel = random_search(evaluator, samples=12, seed=2, workers=2)
        assert [s for s, _ in serial] == pytest.approx(
            [s for s, _ in parallel]
        )


class TestRandomSearch:
    def test_sorted_ascending(self, evaluator):
        results = random_search(evaluator, samples=20, seed=0)
        scores = [s for s, _ in results]
        assert scores == sorted(scores)
        assert len(results) == 20

    def test_majority_of_random_vectors_lose_to_lru(self):
        """Figure 1's shape: on recency-friendly workloads (most of SPEC)
        the bulk of random IPVs are inferior to LRU."""
        friendly = FitnessEvaluator(
            ["447.dealII", "400.perlbench", "445.gobmk"],
            config=default_config(trace_length=4000),
        )
        results = random_search(friendly, samples=40, seed=1)
        lru_fitness = friendly.evaluate(lru_ipv(16))
        losers = sum(1 for s, _ in results if s < lru_fitness)
        assert losers > 20

    def test_sample_validation(self, evaluator):
        with pytest.raises(ValueError):
            random_search(evaluator, samples=0)


class TestHillClimb:
    def test_never_worse_than_start(self, evaluator):
        start = lru_ipv(16)
        result = hill_climb(
            evaluator, start, candidate_values=[0, 8, 15], max_passes=1
        )
        assert result.best_fitness >= result.start_fitness
        assert result.improvement >= 0

    def test_steps_recorded_with_improvements(self, evaluator):
        result = hill_climb(
            evaluator, lru_ipv(16), candidate_values=[15], max_passes=1
        )
        for index, value, fitness in result.steps:
            assert 0 <= index <= 16
            assert value == 15


# ----------------------------------------------------------------------
# Memo.
# ----------------------------------------------------------------------
class _CountingPopEval:
    """Stands in for PopulationEvaluator with a deterministic fitness."""

    def __init__(self):
        self.calls = 0

    def evaluate_all(self, batch):
        self.calls += len(batch)
        return [float(sum(entries)) for entries in batch]


class TestFitnessMemo:
    def test_dedup_and_accounting(self):
        memo = FitnessMemo()
        pop_eval = _CountingPopEval()
        batch = [(0, 1, 2, 3, 0), (1, 1, 1, 1, 1), (0, 1, 2, 3, 0)]
        first = memo.evaluate_all(pop_eval, batch)
        assert pop_eval.calls == 2  # in-batch duplicate deduplicated
        assert first[0] == first[2] == 6.0
        assert memo.misses == 2 and memo.hits == 1
        second = memo.evaluate_all(pop_eval, batch)
        assert pop_eval.calls == 2  # fully served from the memo
        assert second == first
        stats = memo.stats()
        assert stats["hits"] == 4 and stats["misses"] == 2
        assert stats["size"] == 2

    def test_bounded_eviction(self):
        memo = FitnessMemo(limit=2)
        pop_eval = _CountingPopEval()
        memo.evaluate_all(pop_eval, [(0, 0, 0, 0, 0)])
        memo.evaluate_all(pop_eval, [(1, 1, 1, 1, 1)])
        memo.evaluate_all(pop_eval, [(2, 2, 2, 2, 2)])
        assert len(memo) == 2
        assert memo.get((0, 0, 0, 0, 0)) is None  # oldest evicted

    def test_batch_larger_than_limit(self):
        """More fresh tuples than ``limit`` in one batch: the later puts
        evict the earlier ones, and every result is still returned."""
        memo = FitnessMemo(limit=2)
        pop_eval = _CountingPopEval()
        a, b, c = (0, 0, 0, 0, 1), (0, 0, 0, 0, 2), (0, 0, 0, 0, 3)
        assert memo.evaluate_all(pop_eval, [a, b, c, a]) == [1.0, 2.0, 3.0, 1.0]
        assert pop_eval.calls == 3
        assert memo.misses == 3 and memo.hits == 1
        assert len(memo) == 2
        assert memo.get(a) is None  # evicted inside the batch


# ----------------------------------------------------------------------
# Hill-climb memo routing (regression: revisits must not re-simulate).
# ----------------------------------------------------------------------
class _StubEvaluator:
    """Minimal FitnessEvaluator twin with a deterministic closed form."""

    def __init__(self, k=4):
        self.k = k
        self.calls = 0

    def _fitness(self, entries):
        # Smooth, single-optimum landscape so the climb terminates fast.
        return -float(sum((e - 1) ** 2 for e in entries))

    def evaluate_many(self, ipvs):
        batch = [tuple(ind) for ind in ipvs]
        self.calls += len(batch)
        return [self._fitness(entries) for entries in batch]

    def evaluate(self, ipv):
        return self.evaluate_many([ipv])[0]


class TestHillClimbMemo:
    def test_revisited_variants_not_resimulated(self):
        stub = _StubEvaluator(k=4)
        result = hill_climb(
            stub, IPV([3, 3, 3, 3, 3]), max_passes=3, workers=0
        )
        assert tuple(result.best.entries) == (1, 1, 1, 1, 1)
        # Every simulator call corresponds to a distinct tuple: the memo
        # absorbed all cross-pass revisits.
        assert stub.calls == result.memo["misses"]
        assert result.memo["hits"] > 0
        # The converged final pass revisits (k+1)*(k-1) variants and must
        # be free; the naive bill is one simulation per scan visit.
        assert stub.calls < result.evaluations

    def test_shared_memo_carries_across_runs(self):
        stub = _StubEvaluator(k=4)
        memo = FitnessMemo()
        hill_climb(stub, IPV([3, 3, 3, 3, 3]), max_passes=2, workers=0,
                   memo=memo)
        calls_after_first = stub.calls
        result = hill_climb(stub, IPV([3, 3, 3, 3, 3]), max_passes=2,
                            workers=0, memo=memo)
        # Identical second climb: the shared memo serves every variant.
        assert stub.calls == calls_after_first
        assert tuple(result.best.entries) == (1, 1, 1, 1, 1)
