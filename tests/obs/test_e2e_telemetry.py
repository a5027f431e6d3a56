"""End-to-end multiprocess telemetry.

The acceptance contract for the observability layer, exercised for real
(spawned worker processes, no mocks):

* a profiled ``workers=2`` matrix run merges one ``job.simulate`` span
  per job, each returned by a worker with its result;
* the run's status file survives finalization with the terminal state;
* a profiled ``workers=2`` GA run emits a Chrome trace that validates,
  contains spans from at least two worker processes, and nests
  ``ga.generation`` over ``ga.evaluate``.

These spawn real processes, so they are the slowest tests in the obs
suite — kept to one small matrix and one tiny GA.
"""

import pytest

from repro.eval import default_config
from repro.eval.parallel import ParallelRunner
from repro.ga import FitnessEvaluator, evolve_ipv
from repro.obs.spans import (
    SpanRecorder,
    install_recorder,
    uninstall_recorder,
    validate_chrome_trace,
)
from repro.obs.status import read_status

QUICK = default_config(trace_length=3_000)
BENCHES = ["429.mcf", "462.libquantum", "482.sphinx3"]
POLICIES = [("LRU", "lru"), ("PLRU", "plru")]


@pytest.fixture(autouse=True)
def clean_recorder():
    uninstall_recorder()
    yield
    uninstall_recorder()


def test_matrix_merges_worker_deltas_and_finalizes_status(tmp_path):
    status_path = tmp_path / "run-status.json"
    recorder = install_recorder(SpanRecorder(process_label="parent"))

    runner = ParallelRunner(workers=2, progress=False, status_path=status_path)
    matrix = runner.run_matrix(POLICIES, config=QUICK, benchmarks=BENCHES)

    # Every job simulated (no cache), every result present.
    n_jobs = runner.metrics.jobs_total
    assert n_jobs >= 6  # 3 benchmarks x 2 policies, >=1 simpoint each
    assert runner.metrics.simulated == n_jobs
    assert matrix.get("LRU", "429.mcf").misses > 0

    # Each job returned its span with its result, from a worker process.
    worker_spans = recorder.spans_named("job.simulate")
    assert len(worker_spans) == n_jobs
    assert set(s["pid"] for s in worker_spans).isdisjoint({recorder._pid})

    # Status file survives with the terminal state.
    status = read_status(status_path)
    assert status is not None
    assert status["final"] is True
    assert status["phase"] == "done"
    assert status["jobs_done"] == status["jobs_total"] == n_jobs

    # One liveness row per worker that ran a job, from the shared array.
    workers = status["workers"]
    assert set(workers) == {f"w{s['pid']}" for s in worker_spans}
    for row in workers.values():
        assert set(row) == {"alive", "stalled", "last_seen_sec"}
        assert row["alive"] is True and row["stalled"] is False
        assert row["last_seen_sec"] >= 0.0


def test_profiled_parallel_ga_emits_multiprocess_chrome_trace(tmp_path):
    recorder = install_recorder(SpanRecorder(process_label="ga-parent"))
    status_path = tmp_path / "ga-status.json"

    evaluator = FitnessEvaluator(
        benchmarks=["429.mcf", "462.libquantum"],
        config=default_config(trace_length=2_000),
    )
    result = evolve_ipv(
        evaluator, population_size=8, initial_population_size=8,
        generations=2, seed=3, workers=2,
        status_path=status_path,
    )
    assert result.best_fitness > 0

    # Spans from >=2 processes: the parent plus at least one worker (two
    # workers in practice; each batch maps one chunk per worker).
    pids = recorder.pids()
    assert len(pids) >= 2
    assert recorder._pid in pids

    # Nesting: generation spans wrap the evaluate spans in the parent.
    paths = {r["path"] for r in recorder.records}
    assert any(p.endswith("ga.generation;ga.evaluate") for p in paths), paths
    assert any("ga.run" in p for p in paths)
    gens = recorder.spans_named("ga.generation")
    assert len(gens) == 2
    assert all("best_fitness" in g["args"] for g in gens)

    # Worker-side evaluate spans came back with the fitnesses.
    worker_evals = recorder.spans_named("ga.worker_evaluate")
    assert worker_evals
    assert all(r["pid"] != recorder._pid for r in worker_evals)

    # The combined timeline renders as a valid Chrome trace with one
    # process-name metadata entry per pid.
    trace = recorder.to_chrome_trace()
    complete_events = validate_chrome_trace(trace)
    assert complete_events == len(recorder.records)
    meta_pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert meta_pids == set(pids)

    # GA status finalized with the best fitness.
    status = read_status(status_path)
    assert status is not None
    assert status["final"] is True
    assert status["best_fitness"] == pytest.approx(result.best_fitness)
