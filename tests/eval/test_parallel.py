"""Tests for the parallel, cached experiment runner (repro.eval.parallel)."""

import json
import math
import multiprocessing
import subprocess
import sys

import pytest

from repro.eval import default_config
from repro.eval.parallel import (
    CACHE_SCHEMA,
    ParallelRunner,
    ResultCache,
    Watchdog,
    _worker_rows,
    cache_key,
    code_version,
    resolve_cache_dir,
    run_matrix,
)
from repro.eval.runner import RunResult, run_benchmark
from repro.obs.spans import profiled
from repro.obs.status import read_status
from repro.timing import LinearCPIModel
from repro.workloads import get_benchmark

QUICK = default_config(trace_length=4000)
BENCHES = ["429.mcf", "462.libquantum"]
POLICIES = [("LRU", "lru"), ("PLRU", "plru")]


def _serial_reference(config=QUICK, benches=BENCHES, policies=POLICIES):
    out = {}
    for bench in benches:
        for label, policy in [(p[0], p[1]) for p in policies]:
            out[(label, bench)] = run_benchmark(
                policy, get_benchmark(bench), config
            )
    return out


def _assert_matches_reference(matrix, reference):
    for (label, bench), ref in reference.items():
        got = matrix.get(label, bench)
        # Bit-identical: integers AND derived floats.
        assert got.misses == ref.misses
        assert got.instructions == ref.instructions
        assert got.mpki == ref.mpki
        assert [r.misses for r in got.runs] == [r.misses for r in ref.runs]
        assert [r.accesses for r in got.runs] == [r.accesses for r in ref.runs]
        assert [r.instructions for r in got.runs] == [
            r.instructions for r in ref.runs
        ]


class TestBitIdentical:
    def test_workers_one_matches_serial_runner(self):
        matrix = run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES,
            workers=1, progress=False,
        )
        _assert_matches_reference(matrix, _serial_reference())

    def test_workers_four_matches_serial_runner(self):
        matrix = run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES,
            workers=4, progress=False,
        )
        _assert_matches_reference(matrix, _serial_reference())

    def test_run_benchmark_wrapper_matches_serial(self):
        runner = ParallelRunner(workers=1, cache=None, progress=False)
        ref = run_benchmark("lru", get_benchmark("429.mcf"), QUICK)
        got = runner.run_benchmark("lru", "429.mcf", QUICK)
        assert (got.misses, got.instructions, got.mpki) == (
            ref.misses, ref.instructions, ref.mpki
        )

    def test_non_registry_benchmark_falls_back_to_serial(self):
        from repro.workloads.spec import Simpoint, SpecBenchmark
        from repro.trace import streaming

        custom = SpecBenchmark(
            "999.custom",
            [Simpoint(1.0, lambda n, cap, seed: streaming(n, seed=seed))],
            10.0,
            "stream",
        )
        runner = ParallelRunner(workers=1, cache=None, progress=False)
        got = runner.run_benchmark("lru", custom, QUICK)
        ref = run_benchmark("lru", custom, QUICK)
        assert got.misses == ref.misses


class TestCache:
    def test_warm_rerun_simulates_nothing(self, tmp_path):
        cold = run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES,
            workers=2, cache=tmp_path, progress=False,
        )
        assert cold.metrics.simulated == cold.metrics.jobs_total
        assert cold.metrics.cache_hits == 0
        warm = run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES,
            workers=2, cache=tmp_path, progress=False,
        )
        assert warm.metrics.simulated == 0
        assert warm.metrics.cache_hit_rate == 1.0
        _assert_matches_reference(warm, _serial_reference())

    def test_cache_survives_worker_count_change(self, tmp_path):
        run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES[:1],
            workers=1, cache=tmp_path, progress=False,
        )
        warm = run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES[:1],
            workers=3, cache=tmp_path, progress=False,
        )
        assert warm.metrics.simulated == 0

    def test_result_roundtrip_with_miss_positions(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RunResult(
            "t", "lru", accesses=10, misses=3, instructions=100,
            miss_positions=[1, 5, 9],
        )
        cache.put("ab" + "0" * 62, result)
        back = cache.get("ab" + "0" * 62)
        assert back.misses == 3
        assert back.miss_positions == [1, 5, 9]
        assert back.mpki == result.mpki

    def test_get_missing_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("ff" + "0" * 62) is None

    def test_schema_mismatch_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": CACHE_SCHEMA + 1, "result": {}}))
        assert cache.get(key) is None

    def test_corrupt_entry_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None

    @pytest.mark.parametrize("body", [
        [],
        {"schema": CACHE_SCHEMA},
        {"schema": CACHE_SCHEMA, "result": {
            "trace_name": "t", "accesses": 1, "misses": 0,
            "instructions": 10, "miss_positions": None,
        }},
    ], ids=["list", "no-result", "no-policy-name"])
    def test_malformed_entry_is_a_miss(self, tmp_path, body):
        cache = ResultCache(tmp_path)
        key = "0a" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(body))
        assert cache.get(key) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RunResult("t", "lru", accesses=1, misses=0, instructions=10)
        cache.put("ab" + "0" * 62, result)
        cache.put("cd" + "0" * 62, result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_resolve_cache_dir(self, tmp_path):
        assert resolve_cache_dir(None) is None
        assert resolve_cache_dir(False) is None
        assert resolve_cache_dir(str(tmp_path)) == tmp_path
        assert resolve_cache_dir(True) is not None


class TestCacheKey:
    """Satellite: the key must react to every input and be process-stable."""

    def base(self):
        return cache_key(QUICK, "lru", {}, "429.mcf", 0)

    def test_deterministic(self):
        assert self.base() == cache_key(QUICK, "lru", {}, "429.mcf", 0)

    @pytest.mark.parametrize(
        "override",
        [
            {"num_sets": 128},
            {"assoc": 8},
            {"trace_length": 4001},
            {"warmup_fraction": 0.3},
            {"seed": 1},
            {"timing": LinearCPIModel(base_cpi=1.0)},
            {"timing": LinearCPIModel(miss_penalty=100.0)},
        ],
    )
    def test_every_config_field_changes_key(self, override):
        changed = QUICK.scaled(**override)
        assert cache_key(changed, "lru", {}, "429.mcf", 0) != self.base()

    def test_policy_name_changes_key(self):
        assert cache_key(QUICK, "plru", {}, "429.mcf", 0) != self.base()

    def test_benchmark_and_simpoint_change_key(self):
        assert cache_key(QUICK, "lru", {}, "470.lbm", 0) != self.base()
        assert cache_key(QUICK, "lru", {}, "429.mcf", 1) != self.base()

    def test_policy_kwargs_change_key(self):
        from repro.core.vectors import DGIPPR2_WI_VECTORS, DGIPPR4_WI_VECTORS

        a = cache_key(QUICK, "dgippr", {"ipvs": DGIPPR2_WI_VECTORS}, "429.mcf", 0)
        b = cache_key(QUICK, "dgippr", {"ipvs": DGIPPR4_WI_VECTORS}, "429.mcf", 0)
        c = cache_key(QUICK, "dgippr", {}, "429.mcf", 0)
        assert len({a, b, c}) == 3

    def test_scalar_kwarg_changes_key(self):
        a = cache_key(QUICK, "dgippr", {"counter_bits": 11}, "429.mcf", 0)
        b = cache_key(QUICK, "dgippr", {"counter_bits": 10}, "429.mcf", 0)
        assert a != b

    def test_collect_miss_positions_changes_key(self):
        assert cache_key(QUICK, "lru", {}, "429.mcf", 0, True) != self.base()

    def test_key_includes_code_version(self):
        assert code_version() and len(code_version()) == 16
        assert code_version() == code_version()  # memoized, stable

    def test_identical_configs_agree_across_processes(self):
        """The key must be machine/process stable (no PYTHONHASHSEED)."""
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.eval import default_config\n"
            "from repro.eval.parallel import cache_key\n"
            "cfg = default_config(trace_length=4000)\n"
            "print(cache_key(cfg, 'dgippr', {{'counter_bits': 11}}, "
            "'429.mcf', 1))\n"
        ).format(src=_src_dir())
        keys = set()
        for seed in ("0", "1234"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            keys.add(out.stdout.strip())
        local = cache_key(
            default_config(trace_length=4000),
            "dgippr", {"counter_bits": 11}, "429.mcf", 1,
        )
        assert keys == {local}


def _src_dir():
    import repro

    from pathlib import Path

    return str(Path(repro.__file__).resolve().parent.parent)


class TestMetrics:
    def test_metrics_shape(self, tmp_path):
        matrix = run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES[:1],
            workers=1, cache=tmp_path, progress=False,
        )
        payload = matrix.metrics.as_dict()
        for field in (
            "jobs_total", "jobs_done", "cache_hits", "simulated",
            "cache_hit_rate", "sims_per_sec", "wall_time_sec", "job_seconds",
        ):
            assert field in payload
        assert payload["jobs_done"] == payload["jobs_total"]
        assert len(payload["job_seconds"]) == payload["simulated"]
        assert json.dumps(payload)  # JSON-exportable
        assert "jobs" in matrix.metrics.summary()

    def test_metrics_accumulate_on_reused_runner(self):
        runner = ParallelRunner(workers=1, cache=None, progress=False)
        runner.run_benchmark("lru", "453.povray", QUICK)
        first = runner.metrics.jobs_done
        runner.run_benchmark("plru", "453.povray", QUICK)
        assert runner.metrics.jobs_done > first

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(
                [("X", "lru"), ("X", "plru")],
                config=QUICK, benchmarks=BENCHES[:1], progress=False,
            )

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(
                POLICIES, config=QUICK, benchmarks=["999.nope"],
                progress=False,
            )

    def test_bare_policy_names_accepted(self):
        matrix = run_matrix(
            ["lru"], config=QUICK, benchmarks=BENCHES[:1], progress=False,
        )
        assert not math.isnan(matrix.get("lru", BENCHES[0]).mpki)

    def test_unknown_policy_rejected_before_any_work(self, tmp_path):
        status_path = tmp_path / "run-status.json"
        with pytest.raises(ValueError, match="unknown policy 'nope'; known: "):
            run_matrix(
                [("X", "nope")], config=QUICK, benchmarks=BENCHES[:1],
                workers=2, progress=False, status_path=status_path,
            )
        assert not status_path.exists()


#: A job that raises inside the run: the policy exists, its kwargs do not.
FAILING = [("X", "lru", {"bogus": 1})]


class TestFailedRuns:
    def test_failed_matrix_finalizes_status(self, tmp_path):
        status_path = tmp_path / "run-status.json"
        with pytest.raises(TypeError):
            run_matrix(
                FAILING, config=QUICK, benchmarks=BENCHES[:1],
                progress=False, status_path=status_path,
            )
        status = read_status(status_path)
        assert status["final"] is True
        assert status["phase"] == "failed"
        assert status["error"].startswith("TypeError: ")
        assert "bogus" in status["error"]

    def test_parallel_matrices_leave_nothing_in_tmpdir(self, fresh_tmpdir):
        run_matrix(
            POLICIES, config=QUICK, benchmarks=BENCHES[:1],
            workers=2, progress=False,
        )
        with pytest.raises(TypeError):
            run_matrix(
                FAILING, config=QUICK, benchmarks=BENCHES[:1],
                workers=2, progress=False,
            )
        assert list(fresh_tmpdir.iterdir()) == []


# ----------------------------------------------------------------------
# Worker liveness and the watchdog.
# ----------------------------------------------------------------------
def test_watchdog_threshold_has_floor():
    dog = Watchdog(factor=10.0, floor_sec=5.0)
    assert dog.threshold(0.0) == 5.0  # no jobs yet: floor applies
    assert dog.threshold(2.0) == 20.0


def test_watchdog_flags_once_and_recovers(caplog):
    dog = Watchdog(factor=10.0, floor_sec=5.0)
    now = 1000.0
    beats = {"w0": now - 1.0, "w1": now - 30.0}

    def stall_warnings():
        return [r for r in caplog.records
                if r.levelname == "WARNING" and "stalled" in r.getMessage()]

    with caplog.at_level("INFO", logger="repro.eval.parallel"):
        newly = dog.check(beats, median_job_sec=1.0, now=now)
        assert newly == ["w1"]
        assert set(dog.flagged) == {"w1"}

        # Idempotent: still stalled, but not re-reported or re-logged.
        assert dog.check(beats, median_job_sec=1.0, now=now + 1.0) == []
        assert len(stall_warnings()) == 1

        # Recovery unflags.
        beats["w1"] = now + 2.0
        assert dog.check(beats, median_job_sec=1.0, now=now + 3.0) == []
        assert dog.flagged == {}

        # A second genuine stall is a second event.
        beats["w1"] = now - 100.0
        assert dog.check(beats, median_job_sec=1.0, now=now + 4.0) == ["w1"]
        assert len(stall_warnings()) == 2


def test_watchdog_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        Watchdog(factor=0)
    with pytest.raises(ValueError):
        Watchdog(floor_sec=-1.0)


def test_every_worker_claims_its_own_liveness_row(tmp_path):
    """More workers than cores race for rows; none may share one."""
    status_path = tmp_path / "run-status.json"
    with profiled() as recorder:
        run_matrix(
            POLICIES, config=QUICK,
            benchmarks=["429.mcf", "462.libquantum", "482.sphinx3"],
            workers=4, progress=False, status_path=status_path,
        )
    pids = {s["pid"] for s in recorder.spans_named("job.simulate")}
    assert set(read_status(status_path)["workers"]) == {
        f"w{pid}" for pid in pids
    }


def test_worker_rows_flag_the_worker_stuck_in_a_job():
    liveness = multiprocessing.get_context("spawn").Array("d", 9)
    now = 1000.0
    liveness[0:3] = [101, now - 2.0, now - 1.0]  # finished a job 1 s ago
    liveness[3:6] = [202, now - 30.0, 0.0]  # stuck in its first job
    liveness[6:9] = [303, 0.0, 0.0]  # claimed a row, no job yet
    dog = Watchdog(factor=10.0, floor_sec=5.0)

    rows = _worker_rows(liveness, dog, median_job_sec=1.0, now=now)

    assert rows == {
        "w101": {"alive": True, "stalled": False, "last_seen_sec": 1.0},
        "w202": {"alive": False, "stalled": True, "last_seen_sec": 30.0},
    }
    assert set(dog.flagged) == {"w202"}
