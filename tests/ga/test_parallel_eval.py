"""Determinism of the parallel population evaluator and workload sharing.

The contract being tested: ``workers=N`` is bit-identical to the serial
path for every N, for every search driver (GA, hill climbing, random
sampling), and kernel selection (LUT vs bit-walk) never changes a single
fitness value — so ``same seed => same evolved vector`` holds across all
execution modes.
"""

import pytest

from repro.eval import default_config
from repro.ga import (
    FitnessEvaluator,
    PopulationEvaluator,
    evolve_ipv,
    hill_climb,
    random_search,
)
from repro.ga.fitness import _shared_workloads
from repro.obs.status import read_status

BENCHMARKS = ["429.mcf", "462.libquantum"]


def make_evaluator(kernel="auto", trace_length=2_000):
    return FitnessEvaluator(
        benchmarks=BENCHMARKS,
        config=default_config(trace_length=trace_length),
        kernel=kernel,
    )


@pytest.fixture(scope="module")
def evaluator():
    return make_evaluator()


def some_individuals(k, n=6, seed=5):
    import random

    rng = random.Random(seed)
    return [tuple(rng.randrange(k) for _ in range(k + 1)) for _ in range(n)]


# ----------------------------------------------------------------------
# PopulationEvaluator.
# ----------------------------------------------------------------------
def test_parallel_scores_match_serial_in_order(evaluator):
    individuals = some_individuals(evaluator.k)
    with PopulationEvaluator(evaluator, workers=0) as serial:
        base = serial.evaluate_all(individuals)
    with PopulationEvaluator(evaluator, workers=2) as parallel:
        fanned = parallel.evaluate_all(individuals)
    assert fanned == base  # same values, same (submission) order


def test_population_evaluator_counts_and_close(evaluator):
    individuals = some_individuals(evaluator.k, n=3)
    pop = PopulationEvaluator(evaluator, workers=0)
    pop.evaluate_all(individuals)
    assert pop.evaluations == 3
    pop.close()
    pop.close()  # idempotent


def test_pool_maps_one_chunk_per_worker_for_default_kernel(
    evaluator, monkeypatch
):
    # Every kernel, the default "auto" included, sends each batch as at
    # most `workers` contiguous chunks, each scored by evaluate_many.
    from repro.ga import parallel

    class RecordingPool:
        def __init__(self):
            self.maps = []

        def map(self, func, tasks, chunksize=1):
            tasks = list(tasks)
            self.maps.append((func, tasks))
            return [func(task) for task in tasks]

    assert evaluator.kernel == "auto"
    monkeypatch.setattr(parallel, "_WORKER_EVALUATOR", evaluator)
    individuals = some_individuals(evaluator.k, n=7)
    pop = PopulationEvaluator(evaluator, workers=0)
    pool = pop._pool = RecordingPool()
    pop.workers = 2
    fanned = pop.evaluate_all(individuals)
    pop._pool = None
    assert len(pool.maps) == 1
    func, tasks = pool.maps[0]
    assert func is parallel._worker_evaluate
    assert len(tasks) <= 2
    assert [entries for chunk in tasks for entries in chunk] == individuals
    assert fanned == evaluator.evaluate_many(individuals)


def test_parallel_search_leaves_nothing_in_tmpdir(evaluator, fresh_tmpdir):
    evolve_ipv(evaluator, population_size=4, initial_population_size=4,
               generations=1, seed=3, workers=2)
    assert list(fresh_tmpdir.iterdir()) == []


def test_failed_search_finalizes_status(evaluator, tmp_path):
    status_path = tmp_path / "ga-status.json"

    def stop(generation, best):
        raise RuntimeError(f"stopped at generation {generation}")

    with pytest.raises(RuntimeError):
        evolve_ipv(evaluator, population_size=4, initial_population_size=4,
                   generations=2, seed=3, on_generation=stop,
                   status_path=status_path)
    status = read_status(status_path)
    assert status["final"] is True
    assert status["phase"] == "failed"
    assert status["error"] == "RuntimeError: stopped at generation 0"


def test_spec_roundtrip_preserves_fitness(evaluator):
    rebuilt = FitnessEvaluator.from_spec(evaluator.spec())
    for entries in some_individuals(evaluator.k, n=3, seed=9):
        assert rebuilt.evaluate(entries) == evaluator.evaluate(entries)


# ----------------------------------------------------------------------
# Search drivers: parallel == serial, LUT == walk.
# ----------------------------------------------------------------------
def test_evolve_ipv_parallel_identical_to_serial(evaluator):
    kwargs = dict(
        population_size=8, initial_population_size=12, generations=2, seed=3
    )
    serial = evolve_ipv(evaluator, workers=0, **kwargs)
    parallel = evolve_ipv(evaluator, workers=2, **kwargs)
    assert tuple(parallel.best.entries) == tuple(serial.best.entries)
    assert parallel.best_fitness == serial.best_fitness
    assert parallel.history == serial.history
    assert parallel.evaluations == serial.evaluations


def test_evolve_ipv_lut_identical_to_walk():
    kwargs = dict(
        population_size=6, initial_population_size=10, generations=2, seed=11
    )
    walk = evolve_ipv(make_evaluator(kernel="walk"), **kwargs)
    lut = evolve_ipv(make_evaluator(kernel="lut"), **kwargs)
    assert tuple(lut.best.entries) == tuple(walk.best.entries)
    assert lut.best_fitness == walk.best_fitness
    assert lut.history == walk.history


def test_hill_climb_parallel_identical_to_serial(evaluator):
    from repro.core.ipv import IPV

    start = IPV([0] * (evaluator.k + 1), name="start")
    values = [0, 1, evaluator.k - 1]
    serial = hill_climb(
        evaluator, start, candidate_values=values, max_passes=1, workers=0
    )
    parallel = hill_climb(
        evaluator, start, candidate_values=values, max_passes=1, workers=2
    )
    assert tuple(parallel.best.entries) == tuple(serial.best.entries)
    assert parallel.best_fitness == serial.best_fitness
    assert parallel.steps == serial.steps
    assert parallel.evaluations == serial.evaluations


def test_random_search_parallel_identical_to_serial(evaluator):
    serial = random_search(evaluator, samples=8, seed=2, workers=0)
    parallel = random_search(evaluator, samples=8, seed=2, workers=2)
    assert [(s, tuple(v.entries)) for s, v in serial] == [
        (s, tuple(v.entries)) for s, v in parallel
    ]


# ----------------------------------------------------------------------
# Workload sharing.
# ----------------------------------------------------------------------
def test_evaluators_share_workloads_by_reference():
    a = make_evaluator()
    b = make_evaluator()
    # Identical derivation key -> the module memo hands out the same lists.
    assert a._workloads[0][2] is b._workloads[0][2]
    cfg = a.config
    shared = _shared_workloads(
        BENCHMARKS[0], cfg.trace_length, cfg.capacity_blocks, cfg.seed
    )
    assert a._workloads[0][2] is shared[0][0]


def test_baseline_lru_cycles_shared_and_equal():
    a = make_evaluator()
    b = make_evaluator(kernel="walk")  # kernel doesn't affect the baseline
    assert a._lru_cycles == b._lru_cycles


def test_kernel_argument_validated():
    with pytest.raises(ValueError):
        make_evaluator(kernel="banana")


# ----------------------------------------------------------------------
# Columnar batching through the population evaluator.
# ----------------------------------------------------------------------
def test_columnar_serial_identical_to_walk_serial():
    individuals = some_individuals(16, n=6)
    walk = make_evaluator(kernel="walk")
    columnar = make_evaluator(kernel="columnar")
    with PopulationEvaluator(walk, workers=0) as serial_walk:
        base = serial_walk.evaluate_all(individuals)
    with PopulationEvaluator(columnar, workers=0) as serial_col:
        batched = serial_col.evaluate_all(individuals)
    assert batched == base


def test_columnar_parallel_identical_to_serial_in_order():
    individuals = some_individuals(16, n=7, seed=12)
    columnar = make_evaluator(kernel="columnar")
    with PopulationEvaluator(columnar, workers=0) as serial:
        base = serial.evaluate_all(individuals)
    with PopulationEvaluator(columnar, workers=2) as parallel:
        fanned = parallel.evaluate_all(individuals)
    assert fanned == base  # chunked lanes reassemble in submission order


def test_evolve_ipv_columnar_identical_to_walk():
    kwargs = dict(
        population_size=6, initial_population_size=10, generations=2, seed=11
    )
    walk = evolve_ipv(make_evaluator(kernel="walk"), **kwargs)
    columnar = evolve_ipv(make_evaluator(kernel="columnar"), **kwargs)
    assert tuple(columnar.best.entries) == tuple(walk.best.entries)
    assert columnar.best_fitness == walk.best_fitness
    assert columnar.history == walk.history
