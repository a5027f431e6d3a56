"""Tests for the GA fitness function and its fast simulators."""

import random

import pytest

from repro.cache import SetAssociativeCache
from repro.core.ipv import IPV, lip_ipv, lru_ipv
from repro.core.vectors import GIPPR_WI_VECTOR
from repro.eval.config import default_config
from repro.ga import (
    FitnessEvaluator,
    simulate_misses_lru_ipv,
    simulate_misses_plru_ipv,
)
from repro.policies import GIPPRPolicy, IPVLRUPolicy, TrueLRUPolicy


def cache_misses(policy, addresses, num_sets, assoc, warmup):
    cache = SetAssociativeCache(num_sets, assoc, policy, block_size=1)
    for a in addresses[:warmup]:
        cache.access(a)
    cache.reset_stats()
    for a in addresses[warmup:]:
        cache.access(a)
    return cache.stats.misses


class TestFastSimulators:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_plru_sim_matches_policy_exactly(self, seed):
        """The inlined PLRU-IPV simulator is bit-exact with GIPPRPolicy."""
        rng = random.Random(seed)
        addresses = [rng.randrange(400) for _ in range(8000)]
        for ipv in [lru_ipv(16), lip_ipv(16), GIPPR_WI_VECTOR]:
            fast = simulate_misses_plru_ipv(
                addresses, 8, 16, tuple(ipv.entries), warmup=1000
            )
            slow = cache_misses(GIPPRPolicy(8, 16, ipv=ipv), addresses, 8, 16, 1000)
            assert fast == slow, ipv.name

    @pytest.mark.parametrize("seed", [4, 5])
    def test_lru_sim_matches_policy_on_lru_vector(self, seed):
        """With the classic LRU vector both models are exactly LRU."""
        rng = random.Random(seed)
        addresses = [rng.randrange(300) for _ in range(8000)]
        fast = simulate_misses_lru_ipv(
            addresses, 8, 16, tuple(lru_ipv(16).entries), warmup=1000
        )
        slow = cache_misses(TrueLRUPolicy(8, 16), addresses, 8, 16, 1000)
        assert fast == slow

    @pytest.mark.parametrize("seed", [6, 7])
    def test_lru_sim_close_to_policy_on_general_vectors(self, seed):
        """General vectors may diverge transiently during cold fill (the
        fast model has no invalid-way positions) but must agree closely
        once sets are warm."""
        rng = random.Random(seed)
        addresses = [rng.randrange(350) for _ in range(12_000)]
        for ipv in [lip_ipv(16), IPV([0, 0, 1, 0, 3, 0, 1, 2, 1, 0, 5, 1, 0, 0, 1, 11, 13])]:
            fast = simulate_misses_lru_ipv(
                addresses, 8, 16, tuple(ipv.entries), warmup=4000
            )
            slow = cache_misses(
                IPVLRUPolicy(8, 16, ipv), addresses, 8, 16, 4000
            )
            assert abs(fast - slow) <= 0.05 * max(slow, 1), ipv.name

    def test_streaming_misses_everything(self):
        addresses = list(range(5000))
        for sim in (simulate_misses_lru_ipv, simulate_misses_plru_ipv):
            assert sim(addresses, 8, 16, tuple(lru_ipv(16).entries), 0) == 5000


class TestFitnessEvaluator:
    @pytest.fixture(scope="class")
    def evaluator(self):
        config = default_config(trace_length=5000)
        return FitnessEvaluator(
            ["462.libquantum", "429.mcf", "453.povray"], config=config
        )

    def test_lru_vector_fitness_is_one_ish(self, evaluator):
        """The LRU vector on PLRU substrate ~ PLRU ~ LRU: fitness ~ 1."""
        fitness = evaluator.evaluate(lru_ipv(16))
        assert 0.9 < fitness < 1.1

    def test_thrash_resistant_vector_wins(self, evaluator):
        """PLRU-insertion beats the LRU vector on this thrash-heavy mix."""
        fitness_plru_ins = evaluator.evaluate(IPV([0] * 16 + [15]))
        fitness_lru = evaluator.evaluate(lru_ipv(16))
        assert fitness_plru_ins > fitness_lru

    def test_rejects_wrong_length(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate([0] * 9)

    def test_per_benchmark_speedup_keys(self, evaluator):
        speedups = evaluator.per_benchmark_speedup(lru_ipv(16))
        assert set(speedups) == {"462.libquantum", "429.mcf", "453.povray"}

    def test_substrate_validation(self):
        with pytest.raises(ValueError):
            FitnessEvaluator(["429.mcf"], substrate="fifo")

    def test_lru_substrate(self):
        config = default_config(trace_length=4000)
        evaluator = FitnessEvaluator(
            ["462.libquantum"], config=config, substrate="lru"
        )
        assert evaluator.evaluate(lru_ipv(16)) == pytest.approx(1.0)


class TestMLPAwareFitness:
    """Future work item 2: MLP in the fitness function."""

    @pytest.fixture(scope="class")
    def evaluators(self):
        config = default_config(trace_length=5000)
        benches = ["462.libquantum", "429.mcf"]
        linear = FitnessEvaluator(benches, config=config)
        mlp = FitnessEvaluator(benches, config=config, mlp_aware=True)
        return linear, mlp

    def test_lru_vector_still_parity(self, evaluators):
        _, mlp = evaluators
        assert mlp.evaluate(lru_ipv(16)) == pytest.approx(1.0, abs=0.02)

    def test_mlp_compresses_thrash_gains(self, evaluators):
        """Clustered misses are cheaper under the MLP model, so saving
        them is worth less: thrash-vector fitness shrinks toward 1."""
        linear, mlp = evaluators
        thrash_vector = IPV([0] * 16 + [15])
        linear_fitness = linear.evaluate(thrash_vector)
        mlp_fitness = mlp.evaluate(thrash_vector)
        assert linear_fitness > 1.0
        assert 1.0 < mlp_fitness
        assert mlp_fitness < linear_fitness

    def test_miss_indices_collected(self):
        addresses = list(range(100))
        indices = []
        simulate_misses_plru_ipv(
            addresses, 4, 16, tuple(lru_ipv(16).entries), warmup=10,
            miss_indices=indices,
        )
        assert indices == list(range(10, 100))

    def test_burstiness_validated(self):
        with pytest.raises(ValueError):
            FitnessEvaluator(
                ["429.mcf"],
                config=default_config(trace_length=2000),
                mlp_aware=True,
                burstiness=1.5,
            )


class TestWarmupWindowValidation:
    """warmup >= len(addresses) used to yield a silently empty measured
    window (0 misses for every IPV); it must raise instead."""

    @pytest.mark.parametrize("sim", [
        simulate_misses_lru_ipv, simulate_misses_plru_ipv,
    ])
    def test_warmup_consuming_trace_raises(self, sim):
        entries = tuple(lru_ipv(16).entries)
        with pytest.raises(ValueError, match="measured window is empty"):
            sim(list(range(100)), 8, 16, entries, warmup=100)
        with pytest.raises(ValueError, match="measured window is empty"):
            sim(list(range(100)), 8, 16, entries, warmup=500)
        with pytest.raises(ValueError, match="measured window is empty"):
            sim([], 8, 16, entries, warmup=0)

    @pytest.mark.parametrize("sim", [
        simulate_misses_lru_ipv, simulate_misses_plru_ipv,
    ])
    def test_negative_warmup_raises(self, sim):
        entries = tuple(lru_ipv(16).entries)
        with pytest.raises(ValueError, match="non-negative"):
            sim(list(range(100)), 8, 16, entries, warmup=-1)

    def test_walk_and_lut_kernels_validate_too(self):
        entries = tuple(lru_ipv(16).entries)
        for kernel in ("walk", "lut", "columnar"):
            with pytest.raises(ValueError, match="measured window"):
                simulate_misses_plru_ipv(
                    list(range(50)), 8, 16, entries, warmup=50, kernel=kernel
                )

    def test_last_access_measured_is_fine(self):
        entries = tuple(lru_ipv(16).entries)
        assert simulate_misses_plru_ipv(
            list(range(100)), 8, 16, entries, warmup=99
        ) == 1


class TestColumnarKernel:
    """kernel="columnar" and the batched evaluate_many path."""

    @pytest.fixture(scope="class")
    def config(self):
        return default_config(trace_length=4000)

    def test_kernel_validation_accepts_columnar(self, config):
        evaluator = FitnessEvaluator(
            ["429.mcf"], config=config, kernel="columnar"
        )
        assert evaluator.kernel == "columnar"
        with pytest.raises(ValueError):
            FitnessEvaluator(["429.mcf"], config=config, kernel="vector")

    def test_columnar_sim_matches_walk(self, config):
        rng = random.Random(4)
        addresses = [rng.randrange(600) for _ in range(6000)]
        for ipv in [lru_ipv(16), lip_ipv(16), GIPPR_WI_VECTOR]:
            walk = simulate_misses_plru_ipv(
                addresses, 8, 16, tuple(ipv.entries), 500, kernel="walk"
            )
            col = simulate_misses_plru_ipv(
                addresses, 8, 16, tuple(ipv.entries), 500, kernel="columnar"
            )
            assert col == walk, ipv.name

    def test_columnar_fitness_identical_to_walk(self, config):
        walk = FitnessEvaluator(
            ["462.libquantum", "429.mcf"], config=config, kernel="walk"
        )
        col = FitnessEvaluator(
            ["462.libquantum", "429.mcf"], config=config, kernel="columnar"
        )
        for ipv in [lru_ipv(16), IPV([0] * 16 + [15]), GIPPR_WI_VECTOR]:
            assert col.evaluate(ipv) == walk.evaluate(ipv)

    def test_evaluate_many_matches_evaluate_exactly(self, config):
        evaluator = FitnessEvaluator(
            ["462.libquantum", "429.mcf"], config=config, kernel="columnar"
        )
        population = [
            lru_ipv(16), lip_ipv(16), IPV([0] * 16 + [15]), GIPPR_WI_VECTOR,
            lru_ipv(16),  # duplicate lane
        ]
        batched = evaluator.evaluate_many(population)
        serial = [evaluator.evaluate(ipv) for ipv in population]
        assert batched == serial  # bit-identical, not approx

    def test_evaluate_many_matches_walk_at_ga_shape(self, monkeypatch):
        """ga-plru's batch shape: 24 lanes over collapsed 10 000-access
        traces whose hot columns are deep enough for the multi-lane
        spill tail to finish them."""
        from repro.engine.columnar import BatchSimulator

        spilled_lanes = []
        spill_tail = BatchSimulator._spill_tail

        def spy(self, *args, **kwargs):
            spilled_lanes.append(self.lanes)
            return spill_tail(self, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "_spill_tail", spy)
        config = default_config(trace_length=10_000)
        names = ["471.omnetpp", "483.xalancbmk"]
        rng = random.Random(15)
        population = [
            lru_ipv(16), lip_ipv(16), GIPPR_WI_VECTOR,
            lru_ipv(16), GIPPR_WI_VECTOR,  # duplicate lanes
        ]
        while len(population) < 24:
            population.append(IPV([rng.randrange(16) for _ in range(17)]))
        batched = FitnessEvaluator(
            names, config=config, kernel="columnar"
        ).evaluate_many(population)
        walk = FitnessEvaluator(names, config=config, kernel="walk")
        assert batched == [walk.evaluate(ipv) for ipv in population]
        assert spilled_lanes and set(spilled_lanes) == {24}

    def test_ga_generation_is_one_pass(self, monkeypatch):
        """ga-plru's shape (its four benchmarks, five simpoints, 10 000
        accesses, 64 sets): a 24-lane generation stacks every workload
        into one segmented trace, so one BatchSimulator makes one run."""
        from repro.engine.columnar import BatchSimulator

        built, runs = [], []
        init, run = BatchSimulator.__init__, BatchSimulator.run

        def count_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def count_run(self, trace, *args, **kwargs):
            runs.append(trace.lengths)
            return run(self, trace, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "__init__", count_init)
        monkeypatch.setattr(BatchSimulator, "run", count_run)
        evaluator = FitnessEvaluator(
            ["429.mcf", "462.libquantum", "471.omnetpp", "483.xalancbmk"],
            config=default_config(trace_length=10_000, seed=1),
        )
        rng = random.Random(24)
        population = [lru_ipv(16), GIPPR_WI_VECTOR, lru_ipv(16)]
        while len(population) < 24:
            population.append(IPV([rng.randrange(16) for _ in range(17)]))
        batched = evaluator.evaluate_many(population)
        assert len(built) == 1
        assert runs == [tuple(len(w[2]) for w in evaluator._workloads)]
        assert len(runs[0]) == 5
        assert batched == [evaluator.evaluate(ipv) for ipv in population]

    def test_evaluate_many_auto_batches_only_large(self, config):
        evaluator = FitnessEvaluator(
            ["429.mcf"], config=config, kernel="auto"
        )
        small = [lru_ipv(16)] * 2
        large = [lru_ipv(16), lip_ipv(16), GIPPR_WI_VECTOR,
                 IPV([0] * 16 + [15])]
        assert not evaluator._columnar_batchable(len(small))
        assert evaluator._columnar_batchable(len(large))
        assert evaluator.evaluate_many(large) == [
            evaluator.evaluate(ipv) for ipv in large
        ]

    def test_min_lanes_gates_auto_batching(self, config):
        from repro.engine.columnar import DEFAULT_AUTO_MIN_LANES

        evaluator = FitnessEvaluator(
            ["429.mcf"], config=config, kernel="auto"
        )
        assert evaluator._columnar_batchable(DEFAULT_AUTO_MIN_LANES)
        assert not evaluator._columnar_batchable(DEFAULT_AUTO_MIN_LANES - 1)

    def test_evaluate_many_falls_back_scalar(self, config):
        evaluator = FitnessEvaluator(
            ["429.mcf"], config=config, substrate="lru"
        )
        population = [lru_ipv(16), lip_ipv(16)]
        assert not evaluator._columnar_batchable(len(population))
        assert evaluator.evaluate_many(population) == [
            evaluator.evaluate(ipv) for ipv in population
        ]

    def test_evaluate_many_validates_and_handles_empty(self, config):
        evaluator = FitnessEvaluator(
            ["429.mcf"], config=config, kernel="columnar"
        )
        assert evaluator.evaluate_many([]) == []
        with pytest.raises(ValueError):
            evaluator.evaluate_many([[0] * 9])
        with pytest.raises(ValueError):
            evaluator.evaluate_many([[99] * 17])


class TestColumnarMemo:
    """The bounded module-level ColumnarTrace memo behind _columnar_trace."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        from repro.ga.fitness import clear_workload_memo

        clear_workload_memo()
        yield
        clear_workload_memo()

    def _insert(self, key, addresses=(1, 2, 3), num_sets=2):
        from repro.ga.fitness import _shared_columnar_trace

        return _shared_columnar_trace(key, list(addresses), num_sets)

    def test_hit_returns_same_object_and_counts(self):
        from repro.ga.fitness import _COLUMNAR_MEMO

        first = self._insert(("b", 0))
        second = self._insert(("b", 0))
        assert first is second
        assert list(_COLUMNAR_MEMO) == [("b", 0)]

    def test_lru_eviction_at_limit(self):
        from repro.ga.fitness import _COLUMNAR_MEMO, _COLUMNAR_MEMO_LIMIT

        for i in range(_COLUMNAR_MEMO_LIMIT):
            self._insert(("bench", i))
        oldest = self._insert(("bench", 0))  # refresh the oldest entry
        self._insert(("bench", _COLUMNAR_MEMO_LIMIT))  # forces one evict
        assert len(_COLUMNAR_MEMO) == _COLUMNAR_MEMO_LIMIT
        # The refreshed key survived; the true LRU victim did not.
        assert ("bench", 0) in _COLUMNAR_MEMO
        assert ("bench", 1) not in _COLUMNAR_MEMO
        assert self._insert(("bench", 0)) is oldest

    def test_clear_resets_memo_and_stats(self):
        from repro.ga.fitness import _COLUMNAR_MEMO, clear_workload_memo

        first = self._insert(("b", 0))
        clear_workload_memo()
        assert len(_COLUMNAR_MEMO) == 0
        assert self._insert(("b", 0)) is not first  # rebuilt, not reused

    def test_evaluators_share_trace_by_derivation(self):
        from repro.ga.fitness import _COLUMNAR_MEMO

        config = default_config(trace_length=600)
        population = [lru_ipv(16), lip_ipv(16), GIPPR_WI_VECTOR,
                      IPV([0] * 16 + [15])]
        first = FitnessEvaluator(
            ["429.mcf"], config=config, kernel="columnar"
        )
        first.evaluate_many(population)
        # Four lanes stack every simpoint into one pass: one layout,
        # keyed by the group's derivations.
        assert len(first._workload_keys) > 1
        (key,) = _COLUMNAR_MEMO
        assert key[0] == tuple(first._workload_keys)
        layout = _COLUMNAR_MEMO[key]
        # A rebuilt evaluator with the same derivation reuses the layouts.
        second = FitnessEvaluator(
            ["429.mcf"], config=config, kernel="columnar"
        )
        second.evaluate_many(population)
        assert list(_COLUMNAR_MEMO) == [key]
        assert _COLUMNAR_MEMO[key] is layout
