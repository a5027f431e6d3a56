"""Parallel, cached experiment runner.

The full paper reproduction sweeps 29 benchmarks x ~10 policies x multiple
simpoints through a pure-Python trace simulator; re-simulating everything
serially for every figure build is the single biggest wall-clock cost in
the repo.  This module provides:

* :func:`run_matrix` / :class:`ParallelRunner` — fan ``(benchmark, policy,
  simpoint)`` jobs out over a spawn-safe :mod:`multiprocessing` pool.
  Workers never receive pickled megabyte trace objects; they regenerate
  each simpoint's trace deterministically from ``(benchmark name, simpoint
  index, config.seed)`` using the exact derivation of
  :meth:`repro.workloads.spec.SpecBenchmark.trace`, so a parallel run is
  bit-identical to the serial :func:`repro.eval.runner.run_benchmark` path.
* An on-disk result cache (``~/.cache/repro-eval`` by default, overridable
  with ``--cache-dir`` / ``REPRO_CACHE_DIR``) keyed by a stable hash of the
  full :class:`ExperimentConfig`, the policy name and kwargs, the trace
  seed derivation, and a hash of the simulator source (*code version*), so
  repeated figure builds hit the cache instead of resimulating and any
  code or config change invalidates cleanly.
* A progress/metrics layer (:class:`RunnerMetrics`): jobs done, cache hit
  rate, simulations per second and per-job wall time, surfaced on stderr
  and exportable as JSON.

Determinism guarantees
----------------------
``run_matrix(..., workers=N)`` returns bit-identical
:class:`BenchmarkResult` objects for every ``N`` (including the serial
``workers<=1`` path) because each job is a pure function of its key:
traces are regenerated from the config seed, a fresh policy instance is
built per simpoint, and aggregation happens in the parent in a fixed
order.  Cached results store the raw integer statistics, from which the
derived floats are recomputed by the :class:`RunResult` constructor, so a
cache hit is also bit-identical to a fresh simulation.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import statistics
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.provenance import build_manifest, write_atomic, write_manifest
from ..obs.spans import current_recorder, profiled, span
from ..policies.registry import make_policy, policy_factory
from ..workloads.spec import SPEC_BENCHMARKS, SpecBenchmark, benchmark_names
from .config import ExperimentConfig, default_config
from .runner import BenchmarkResult, RunResult, run_trace

logger = logging.getLogger(__name__)

__all__ = [
    "CACHE_SCHEMA",
    "MatrixResult",
    "ParallelRunner",
    "ResultCache",
    "RunnerMetrics",
    "Watchdog",
    "cache_key",
    "code_version",
    "default_cache_dir",
    "resolve_cache_dir",
    "run_matrix",
]

#: Bump when the cached payload layout changes (invalidates old entries).
CACHE_SCHEMA = 1


# ----------------------------------------------------------------------
# Stable cache keys.
# ----------------------------------------------------------------------
def _canonical(value):
    """A JSON-serializable canonical form of ``value`` for hashing.

    Dicts are key-sorted, tuples become lists, numpy scalars collapse to
    Python numbers, and arbitrary objects are expanded into their class
    name plus their (sorted) ``__dict__``/``__slots__`` fields — which
    covers :class:`ExperimentConfig`, :class:`LinearCPIModel` and
    :class:`repro.core.ipv.IPV` without special cases.  Any field change
    therefore changes the hash.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    # Numpy scalars (seeds, lengths) without importing numpy eagerly.
    if hasattr(value, "item") and callable(value.item):
        try:
            return _canonical(value.item())
        except (TypeError, ValueError):
            pass
    if callable(value) and hasattr(value, "__qualname__"):
        return {"__callable__": f"{value.__module__}.{value.__qualname__}"}
    fields = {}
    if hasattr(value, "__dict__"):
        fields = dict(vars(value))
    else:
        for slot in getattr(type(value), "__slots__", ()) or ():
            if hasattr(value, slot):
                fields[slot] = getattr(value, slot)
    return {
        "__class__": type(value).__name__,
        "fields": {k: _canonical(v) for k, v in sorted(fields.items())},
    }


#: Source trees whose content determines simulation results.  ``eval`` is
#: represented only by the runner/config modules on purpose: reporting or
#: orchestration changes must not invalidate simulated results.  The
#: kernel tables and columnar engine ARE result-determining — policies
#: dispatch their transitions through them — so a bug fix there must
#: invalidate cached matrices like any policy change would.
_CODE_VERSION_PARTS = (
    "cache",
    "core",
    "engine",
    "kernels",
    "policies",
    "trace",
    "workloads",
    "eval/runner.py",
    "eval/config.py",
)

_code_version_memo: Optional[str] = None


def code_version() -> str:
    """Hash of the simulator source files that determine results.

    Any edit to the cache model, policies, trace generators, workloads or
    the runner/config modules changes this hash and therefore invalidates
    every cached result.  Memoized per process.
    """
    global _code_version_memo
    if _code_version_memo is not None:
        return _code_version_memo
    root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.sha256()
    for part in _CODE_VERSION_PARTS:
        path = root / part
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            try:
                blob = file.read_bytes()
            except OSError:  # pragma: no cover - racing file removal
                continue
            digest.update(str(file.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(blob)
            digest.update(b"\0")
    _code_version_memo = digest.hexdigest()[:16]
    return _code_version_memo


def cache_key(
    config: ExperimentConfig,
    policy_name: str,
    policy_kwargs: Optional[dict],
    benchmark: str,
    simpoint: int,
    collect_miss_positions: bool = False,
) -> str:
    """Stable hex key for one ``(benchmark, policy, simpoint)`` job.

    Identical inputs produce identical keys in any process on any machine
    (the payload is canonical JSON, not :func:`hash`); changing any
    :class:`ExperimentConfig` field, the policy name, any policy kwarg,
    the seed, or the simulator source changes the key.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "code": code_version(),
        "config": _canonical(config),
        "benchmark": benchmark,
        "simpoint": int(simpoint),
        "policy": policy_name,
        "policy_kwargs": _canonical(dict(policy_kwargs or {})),
        "miss_positions": bool(collect_miss_positions),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# On-disk result cache.
# ----------------------------------------------------------------------
def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-eval``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-eval").expanduser()


def resolve_cache_dir(cache: Union[None, bool, str, Path]) -> Optional[Path]:
    """Normalize a user-facing cache setting to a directory (or None).

    ``None``/``False`` disable caching, ``True`` selects the default
    directory, and a string/path selects an explicit directory.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_cache_dir()
    return Path(cache).expanduser()


class ResultCache:
    """Content-addressed store of :class:`RunResult` payloads.

    One JSON file per key under ``root/<key[:2]>/<key>.json``; writes are
    atomic (temp file + ``os.replace``) so concurrent runs sharing a cache
    directory never observe torn entries.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result, or ``None`` for a miss.

        An unreadable file, another schema, or an entry that is not an
        object with a complete ``result`` all count as a miss.
        """
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            if payload["schema"] != CACHE_SCHEMA:
                return None
            return _result_from_dict(payload["result"])
        except (KeyError, TypeError):
            return None

    def put(
        self, key: str, result: RunResult, manifest: Optional[dict] = None
    ) -> None:
        """Store a result (atomically) plus an optional provenance sidecar.

        ``manifest`` (see :func:`repro.obs.provenance.build_manifest`) is
        written next to the entry as ``<key>.manifest.json`` so every
        cached number can be traced to the code, config and host that
        produced it.
        """
        path = self._path(key)
        payload = {"schema": CACHE_SCHEMA, "key": key, "result": _result_to_dict(result)}
        try:
            write_atomic(path, json.dumps(payload, separators=(",", ":")))
        except OSError:  # pragma: no cover - cache dir unwritable
            return
        if manifest is not None:
            write_manifest(path, manifest)

    def manifest_for(self, key: str) -> Optional[dict]:
        """Load the provenance sidecar of a cached entry, if present."""
        path = self._path(key)
        manifest_path = path.with_name(f"{path.stem}.manifest.json")
        try:
            with open(manifest_path, "r") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            1 for p in self.root.glob("??/*.json")
            if not p.name.endswith(".manifest.json")
        )

    def clear(self) -> int:
        """Remove every cached entry (and manifest); returns entries removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("??/*.json"):
            is_manifest = path.name.endswith(".manifest.json")
            try:
                path.unlink()
                if not is_manifest:
                    removed += 1
            except OSError:  # pragma: no cover
                pass
        return removed


def _result_to_dict(result: RunResult) -> dict:
    return {
        "trace_name": result.trace_name,
        "policy_name": result.policy_name,
        "accesses": result.accesses,
        "misses": result.misses,
        "instructions": result.instructions,
        "miss_positions": result.miss_positions,
    }


def _result_from_dict(payload: dict) -> RunResult:
    return RunResult(
        payload["trace_name"],
        payload["policy_name"],
        accesses=payload["accesses"],
        misses=payload["misses"],
        instructions=payload["instructions"],
        miss_positions=payload["miss_positions"],
    )


# ----------------------------------------------------------------------
# Metrics and progress.
# ----------------------------------------------------------------------
class RunnerMetrics:
    """Counters for one or more matrix runs (cumulative on a runner)."""

    def __init__(self):
        self.jobs_total = 0
        self.jobs_done = 0
        self.cache_hits = 0
        self.simulated = 0
        self.wall_time = 0.0
        self.job_seconds: List[float] = []

    def add_jobs(self, count: int) -> None:
        self.jobs_total += count

    def record_cache_hit(self) -> None:
        self.jobs_done += 1
        self.cache_hits += 1

    def record_simulated(self, seconds: float) -> None:
        self.jobs_done += 1
        self.simulated += 1
        self.job_seconds.append(seconds)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.jobs_done if self.jobs_done else 0.0

    @property
    def sims_per_sec(self) -> float:
        return self.simulated / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds until the run completes (``None`` = unknown).

        Remaining jobs over the measured simulation rate.  Cache probing
        is effectively free, so once simulation starts the estimate
        converges quickly; before the first completed simulation there is
        no rate and therefore no estimate.
        """
        remaining = self.jobs_total - self.jobs_done
        if remaining <= 0:
            return 0.0
        rate = self.sims_per_sec
        if rate <= 0:
            return None
        return remaining / rate

    @property
    def median_job_seconds(self) -> float:
        """Median per-job wall time this runner has observed (0 if none)."""
        return statistics.median(self.job_seconds) if self.job_seconds else 0.0

    def as_dict(self) -> dict:
        """JSON-exportable snapshot (per-job wall times included)."""
        return {
            "jobs_total": self.jobs_total,
            "jobs_done": self.jobs_done,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "cache_hit_rate": self.cache_hit_rate,
            "sims_per_sec": self.sims_per_sec,
            "wall_time_sec": self.wall_time,
            "job_seconds": list(self.job_seconds),
        }

    def summary(self) -> str:
        return (
            f"{self.jobs_done}/{self.jobs_total} jobs, "
            f"{self.cache_hits} cached ({self.cache_hit_rate:.0%}), "
            f"{self.simulated} simulated, "
            f"{self.sims_per_sec:.1f} sims/s, "
            f"{self.wall_time:.1f}s wall"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunnerMetrics({self.summary()})"


class _Progress:
    """Throttled single-line progress display on a TTY.

    This is interactive display (carriage-return rewriting), not logging;
    diagnostics go through the module logger instead.
    """

    def __init__(self, enabled: bool, stream=None, min_interval: float = 0.2):
        self.enabled = enabled
        self.stream = stream or sys.stderr
        self.min_interval = min_interval
        self._last = 0.0

    def update(self, metrics: RunnerMetrics, final: bool = False) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if not final and now - self._last < self.min_interval:
            return
        self._last = now
        end = "\n" if final else "\r"
        eta = ""
        if not final:
            remaining = metrics.eta_seconds
            if remaining is not None and metrics.jobs_done < metrics.jobs_total:
                eta = f", eta {_fmt_eta(remaining)}"
        self.stream.write(f"[repro-eval] {metrics.summary()}{eta}{end}")
        self.stream.flush()


def _fmt_eta(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"


# ----------------------------------------------------------------------
# Worker liveness (parallel runs only).
# ----------------------------------------------------------------------
#: A pool worker's row in the shared liveness array: its pid, then the
#: wall-clock start and end of its latest job.
_LIVENESS_FIELDS = 3

#: ``(liveness array, row offset)`` in a pool worker.  A pool never has
#: more processes than the array has rows, so every worker claims one.
_WORKER_ROW: Optional[tuple] = None


def _claim_liveness_row(liveness) -> None:
    """Pool initializer: claim the first free row of ``liveness``."""
    global _WORKER_ROW
    with liveness.get_lock():
        for offset in range(0, len(liveness), _LIVENESS_FIELDS):
            if not liveness[offset]:
                liveness[offset] = os.getpid()
                _WORKER_ROW = (liveness, offset)
                return


class Watchdog:
    """Flags workers whose heartbeat is older than N× the median job time.

    ``check`` is cheap and idempotent: a worker is warned about once per
    stall (one log line) and un-flagged if its heartbeat recovers, so a
    slow-but-alive worker that catches up stops being reported.
    """

    def __init__(self, factor: float = 10.0, floor_sec: float = 5.0):
        if factor <= 0 or floor_sec <= 0:
            raise ValueError("watchdog factor and floor must be positive")
        self.factor = factor
        self.floor_sec = floor_sec
        self.flagged: Dict[str, float] = {}

    def threshold(self, median_job_sec: float) -> float:
        return max(self.floor_sec, self.factor * max(0.0, median_job_sec))

    def check(
        self,
        heartbeats: Dict[str, float],
        median_job_sec: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Return the workers that just *became* stalled (new flags only)."""
        now = time.time() if now is None else now
        limit = self.threshold(median_job_sec)
        newly: List[str] = []
        for worker, last_seen in heartbeats.items():
            age = now - last_seen
            if age > limit:
                if worker not in self.flagged:
                    self.flagged[worker] = last_seen
                    newly.append(worker)
                    logger.warning(
                        "worker %s stalled: no heartbeat for %.1fs "
                        "(threshold %.1fs = max(%.1f, %.1fx median job %.2fs))",
                        worker, age, limit, self.floor_sec, self.factor,
                        median_job_sec,
                    )
            elif worker in self.flagged:
                del self.flagged[worker]
                logger.info("worker %s recovered (heartbeat %.1fs ago)",
                            worker, age)
        return newly


def _worker_rows(
    liveness, watchdog: Watchdog, median_job_sec: float,
    now: Optional[float] = None,
) -> Dict[str, dict]:
    """Run ``watchdog`` over ``liveness``; the status ``workers`` rows.

    A worker is last seen at the later of its latest job's start and end,
    so one stuck inside a job — its first included — ages from that
    job's start.  Workers that have not started a job are not listed.
    """
    now = time.time() if now is None else now
    last_seen = {}
    for offset in range(0, len(liveness), _LIVENESS_FIELDS):
        pid, started, ended = liveness[offset:offset + _LIVENESS_FIELDS]
        if started:
            last_seen[f"w{int(pid)}"] = max(started, ended)
    watchdog.check(last_seen, median_job_sec, now=now)
    return {
        worker: {
            "alive": worker not in watchdog.flagged,
            "stalled": worker in watchdog.flagged,
            "last_seen_sec": round(max(0.0, now - seen), 1),
        }
        for worker, seen in last_seen.items()
    }


# ----------------------------------------------------------------------
# Job execution (shared by the serial path and the worker processes).
# ----------------------------------------------------------------------
def _config_fields(config: ExperimentConfig) -> dict:
    """The picklable primitives a worker needs to rebuild the config.

    The timing model is deliberately omitted: it never influences
    simulation (only post-hoc CPI estimates in the parent).
    """
    return {
        "num_sets": config.num_sets,
        "assoc": config.assoc,
        "trace_length": config.trace_length,
        "warmup_fraction": config.warmup_fraction,
        "seed": config.seed,
    }


#: Worker-local trace memo so consecutive jobs for the same simpoint (one
#: per policy) do not regenerate the trace.  Bounded to keep memory flat.
_TRACE_MEMO: Dict[tuple, object] = {}
_TRACE_MEMO_LIMIT = 32


def _simpoint_trace(bench_name: str, simpoint: int, config: ExperimentConfig):
    key = (
        bench_name,
        simpoint,
        config.trace_length,
        config.capacity_blocks,
        config.seed,
    )
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        benchmark = SPEC_BENCHMARKS[bench_name]
        with span("job.trace_regen", benchmark=bench_name, simpoint=simpoint):
            trace = benchmark.trace(
                simpoint, config.trace_length, config.capacity_blocks,
                seed=config.seed,
            )
        while len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[key] = trace
    return trace


def _execute_job(payload: tuple) -> Tuple[int, dict, float]:
    """Run one ``(benchmark, policy, simpoint)`` job; top-level for spawn.

    Returns ``(job index, RunResult payload, wall seconds)``.  Traces are
    regenerated from the config seed — never unpickled — so results match
    the serial path bit for bit.
    """
    (index, bench_name, simpoint, policy_name, policy_kwargs, fields,
     collect) = payload
    started = time.perf_counter()
    config = ExperimentConfig(apply_env_scale=False, **fields)
    with span("job.simulate", benchmark=bench_name, policy=policy_name,
              simpoint=simpoint):
        trace = _simpoint_trace(bench_name, simpoint, config)
        policy = make_policy(
            policy_name, config.num_sets, config.assoc, **(policy_kwargs or {})
        )
        result = run_trace(policy, trace, config, collect_miss_positions=collect)
    seconds = time.perf_counter() - started
    return index, _result_to_dict(result), seconds


def _pooled_job(
    payload: tuple, profile: bool
) -> Tuple[int, dict, float, Optional[dict]]:
    """:func:`_execute_job` in a pool worker, plus the job's spans.

    Stamps the worker's liveness row at the job's start and end.  With
    ``profile`` set (the parent has a span recorder installed) the job
    records into a fresh recorder whose
    :meth:`~repro.obs.spans.SpanRecorder.payload` comes back last in the
    tuple; otherwise that element is None.
    """
    liveness, offset = _WORKER_ROW
    liveness[offset + 1] = time.time()
    with profiled() if profile else nullcontext() as recorder:
        result = _execute_job(payload)
    liveness[offset + 2] = time.time()
    return result + (recorder.payload() if recorder is not None else None,)


def _job_manifest(job: "_Job", config: ExperimentConfig, seconds: float) -> dict:
    """Provenance sidecar payload for one freshly simulated cache entry."""
    return build_manifest(
        config=config,
        policy=job.policy,
        policy_kwargs=job.kwargs,
        wall_time_sec=seconds,
        extra={
            "benchmark": job.bench,
            "simpoint": job.simpoint,
            "label": job.label,
            "cache_key": job.key,
        },
    )


# ----------------------------------------------------------------------
# The runner.
# ----------------------------------------------------------------------
class _Job:
    __slots__ = ("index", "label", "bench", "simpoint", "policy", "kwargs", "key")

    def __init__(self, index, label, bench, simpoint, policy, kwargs, key):
        self.index = index
        self.label = label
        self.bench = bench
        self.simpoint = simpoint
        self.policy = policy
        self.kwargs = kwargs
        self.key = key


class MatrixResult:
    """Output of :func:`run_matrix`: result grid plus run metrics."""

    def __init__(
        self,
        config: ExperimentConfig,
        results: Dict[str, Dict[str, BenchmarkResult]],
        metrics: RunnerMetrics,
    ):
        self.config = config
        self.results = results
        self.metrics = metrics

    def get(self, label: str, benchmark: str) -> BenchmarkResult:
        return self.results[label][benchmark]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MatrixResult(labels={list(self.results)}, {self.metrics.summary()})"


def _normalize_spec(spec) -> Tuple[str, str, dict]:
    """Accept ``PolicySpec``, ``(label, policy[, kwargs])`` or a bare name."""
    if isinstance(spec, str):
        return spec, spec, {}
    label, policy = spec[0], spec[1]
    kwargs = dict(spec[2]) if len(spec) > 2 and spec[2] else {}
    return label, policy, kwargs


class ParallelRunner:
    """Reusable experiment runner: worker pool + result cache + metrics.

    Parameters
    ----------
    workers:
        Worker processes.  ``0``/``1`` run serially in-process (the
        bit-identical reference path); ``N > 1`` fans jobs over a
        spawn-context :class:`ProcessPoolExecutor`.
    cache:
        ``None``/``False`` — no caching; ``True`` — the default directory
        (:func:`default_cache_dir`); a path — that directory.
    progress:
        ``True``/``False`` to force progress lines on stderr; ``None``
        (default) enables them only when stderr is a TTY.
    status_path:
        Where to publish the live ``run-status.json``
        (:class:`repro.obs.status.StatusPublisher`).  ``None`` falls back
        to ``$REPRO_STATUS_PATH``; unset means no status file.  A parallel
        run's status carries a ``workers`` row per pool worker, checked
        by a :class:`Watchdog` at 10x the median job time (floored at
        5 s).

    While a span recorder is installed, each pooled job returns the spans
    it recorded with its result, and they are merged into that recorder
    as results arrive.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Union[None, bool, str, Path] = None,
        progress: Optional[bool] = None,
        status_path: Union[None, str, Path] = None,
    ):
        self.workers = int(workers or 0)
        cache_dir = resolve_cache_dir(cache)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if progress is None:
            progress = bool(getattr(sys.stderr, "isatty", lambda: False)())
        self.progress = _Progress(progress)
        self.metrics = RunnerMetrics()
        self.status_path = status_path

    # ------------------------------------------------------------------
    def _status_publisher(self):
        """A StatusPublisher for this run, or None when status is off."""
        from ..obs.status import StatusPublisher, default_status_path

        path = self.status_path
        if path is None:
            path = default_status_path()
        if not path:
            return None
        return StatusPublisher(path, kind="matrix")

    # ------------------------------------------------------------------
    def run_matrix(
        self,
        policies: Sequence,
        config: Optional[ExperimentConfig] = None,
        benchmarks: Optional[Sequence[str]] = None,
        collect_miss_positions: bool = False,
    ) -> MatrixResult:
        """Run every policy over every benchmark's every simpoint.

        Returns a :class:`MatrixResult` whose ``results[label][bench]``
        are bit-identical to serial :func:`run_benchmark` output for any
        worker count.
        """
        config = config or default_config()
        bench_names = list(benchmarks or benchmark_names())
        specs = [_normalize_spec(spec) for spec in policies]
        labels = [label for label, _, _ in specs]
        if len(set(labels)) != len(labels):
            raise ValueError("policy labels must be unique")
        for name in bench_names:
            if name not in SPEC_BENCHMARKS:
                raise ValueError(f"unknown benchmark {name!r}")
        for _, policy, _ in specs:
            policy_factory(policy)  # make_policy's ValueError, before any work

        jobs: List[_Job] = []
        for bench_name in bench_names:
            benchmark = SPEC_BENCHMARKS[bench_name]
            for label, policy, kwargs in specs:
                for simpoint in range(len(benchmark.simpoints)):
                    jobs.append(
                        _Job(
                            len(jobs),
                            label,
                            bench_name,
                            simpoint,
                            policy,
                            kwargs,
                            cache_key(
                                config, policy, kwargs, bench_name, simpoint,
                                collect_miss_positions,
                            ),
                        )
                    )

        run_results = self._execute(jobs, config, collect_miss_positions)

        # Deterministic aggregation, independent of completion order.
        with span("matrix.aggregate", jobs=len(jobs)):
            results: Dict[str, Dict[str, BenchmarkResult]] = {
                l: {} for l in labels
            }
            by_cell: Dict[Tuple[str, str], List[RunResult]] = {}
            for job in jobs:
                by_cell.setdefault((job.label, job.bench), []).append(
                    run_results[job.index]
                )
            for bench_name in bench_names:
                benchmark = SPEC_BENCHMARKS[bench_name]
                for label, policy, _ in specs:
                    results[label][bench_name] = BenchmarkResult(
                        bench_name, policy, by_cell[(label, bench_name)],
                        benchmark.weights(),
                    )
        return MatrixResult(config, results, self.metrics)

    # ------------------------------------------------------------------
    def run_benchmark(
        self,
        policy_name: str,
        benchmark: Union[str, SpecBenchmark],
        config: Optional[ExperimentConfig] = None,
        policy_kwargs: Optional[dict] = None,
        collect_miss_positions: bool = False,
    ) -> BenchmarkResult:
        """Cached drop-in for :func:`repro.eval.runner.run_benchmark`.

        Accepts a registry benchmark (name or object).  Non-registry
        benchmark objects fall back to the serial uncached runner, since
        workers could not regenerate their traces.
        """
        config = config or default_config()
        if isinstance(benchmark, SpecBenchmark):
            registered = SPEC_BENCHMARKS.get(benchmark.name)
            if registered is not benchmark:
                from .runner import run_benchmark as serial_run_benchmark

                return serial_run_benchmark(
                    policy_name, benchmark, config,
                    policy_kwargs=policy_kwargs,
                    collect_miss_positions=collect_miss_positions,
                )
            name = benchmark.name
        else:
            name = benchmark
        matrix = self.run_matrix(
            [(policy_name, policy_name, policy_kwargs or {})],
            config=config,
            benchmarks=[name],
            collect_miss_positions=collect_miss_positions,
        )
        return matrix.get(policy_name, name)

    # ------------------------------------------------------------------
    def _execute(
        self,
        jobs: Sequence[_Job],
        config: ExperimentConfig,
        collect_miss_positions: bool,
    ) -> Dict[int, RunResult]:
        status = self._status_publisher()
        try:
            return self._run_jobs(jobs, config, collect_miss_positions, status)
        except BaseException as exc:
            if status is not None:
                status.fail(exc)
            raise

    def _run_jobs(
        self,
        jobs: Sequence[_Job],
        config: ExperimentConfig,
        collect_miss_positions: bool,
        status,
    ) -> Dict[int, RunResult]:
        metrics = self.metrics
        metrics.add_jobs(len(jobs))
        base_wall = metrics.wall_time
        started = time.monotonic()
        results: Dict[int, RunResult] = {}

        if status is not None:
            status.update(
                force=True, phase="cache-probe",
                jobs_total=metrics.jobs_total, jobs_done=metrics.jobs_done,
                workers_requested=self.workers,
            )

        pending: List[_Job] = []
        with span("matrix.cache_probe", jobs=len(jobs)):
            for job in jobs:
                cached = (
                    self.cache.get(job.key) if self.cache is not None else None
                )
                if cached is not None:
                    results[job.index] = cached
                    metrics.record_cache_hit()
                    self.progress.update(metrics)
                    if status is not None:
                        status.update(
                            jobs_done=metrics.jobs_done,
                            cache_hit_rate=metrics.cache_hit_rate,
                        )
                else:
                    pending.append(job)
        logger.debug(
            "matrix: %d jobs (%d cached, %d to simulate, workers=%d)",
            len(jobs), len(jobs) - len(pending), len(pending), self.workers,
        )

        parallel = self.workers > 1 and len(pending) > 1
        fields = _config_fields(config)
        payloads = [
            (j.index, j.bench, j.simpoint, j.policy, j.kwargs, fields,
             collect_miss_positions)
            for j in pending
        ]
        by_index = {j.index: j for j in pending}

        def _record(index: int, result: RunResult, seconds: float) -> None:
            results[index] = result
            metrics.record_simulated(seconds)
            if self.cache is not None:
                job = by_index[index]
                self.cache.put(
                    job.key, result,
                    manifest=_job_manifest(job, config, seconds),
                )
            metrics.wall_time = base_wall + (time.monotonic() - started)
            self.progress.update(metrics)

        def _publish_status(workers_field=None) -> None:
            if status is None:
                return
            fields_now = dict(
                phase="simulate",
                jobs_total=metrics.jobs_total,
                jobs_done=metrics.jobs_done,
                throughput=metrics.sims_per_sec,
                throughput_unit="sims/s",
                cache_hit_rate=metrics.cache_hit_rate,
                eta_sec=metrics.eta_seconds,
            )
            if workers_field is not None:
                fields_now["workers"] = workers_field
            status.update(**fields_now)

        if parallel:
            import multiprocessing

            context = multiprocessing.get_context("spawn")
            max_workers = min(self.workers, len(pending))
            liveness = context.Array("d", _LIVENESS_FIELDS * max_workers)
            watchdog = Watchdog()
            recorder = current_recorder()
            with span("matrix.simulate", jobs=len(pending),
                      workers=max_workers):
                with ProcessPoolExecutor(
                    max_workers=max_workers, mp_context=context,
                    initializer=_claim_liveness_row, initargs=(liveness,),
                ) as pool:
                    futures = {
                        pool.submit(_pooled_job, p, recorder is not None)
                        for p in payloads
                    }
                    while futures:
                        done, futures = wait(
                            futures, timeout=0.5,
                            return_when=FIRST_COMPLETED,
                        )
                        for future in done:
                            index, payload, seconds, spans = future.result()
                            if spans is not None:
                                recorder.merge_payload(spans)
                            _record(index, _result_from_dict(payload), seconds)
                        # Liveness tick: watchdog + status, even when no job
                        # completed this round.
                        metrics.wall_time = (
                            base_wall + (time.monotonic() - started)
                        )
                        _publish_status(_worker_rows(
                            liveness, watchdog, metrics.median_job_seconds
                        ))
        else:
            with span("matrix.simulate", jobs=len(pending), workers=1):
                for payload in payloads:
                    index, result_dict, seconds = _execute_job(payload)
                    _record(index, _result_from_dict(result_dict), seconds)
                    _publish_status()

        metrics.wall_time = base_wall + (time.monotonic() - started)
        self.progress.update(metrics, final=True)
        if status is not None:
            status.finalize(
                phase="done",
                jobs_total=metrics.jobs_total,
                jobs_done=metrics.jobs_done,
                throughput=metrics.sims_per_sec,
                throughput_unit="sims/s",
                cache_hit_rate=metrics.cache_hit_rate,
                eta_sec=0.0,
            )
        logger.info("matrix done: %s", metrics.summary())
        return results


def run_matrix(
    policies: Sequence,
    config: Optional[ExperimentConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
    workers: int = 1,
    cache: Union[None, bool, str, Path] = None,
    progress: Optional[bool] = None,
    collect_miss_positions: bool = False,
    status_path: Union[None, str, Path] = None,
) -> MatrixResult:
    """One-shot convenience wrapper around :class:`ParallelRunner`.

    ``policies`` accepts :class:`repro.eval.experiments.PolicySpec`
    instances, ``(label, policy_name[, kwargs])`` tuples, or bare policy
    names.  See :class:`ParallelRunner` for ``workers`` / ``cache`` /
    ``progress`` / ``status_path`` semantics.
    """
    runner = ParallelRunner(
        workers=workers, cache=cache, progress=progress,
        status_path=status_path,
    )
    return runner.run_matrix(
        policies,
        config=config,
        benchmarks=benchmarks,
        collect_miss_positions=collect_miss_positions,
    )
