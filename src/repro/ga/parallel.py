"""Spawn-safe parallel population evaluation for the IPV searches.

The GA, hill climber and random sampler all reduce to the same primitive:
score a batch of independent IPVs against one :class:`FitnessEvaluator`.
:class:`PopulationEvaluator` fans that batch over a spawn-context worker
pool following the PR-1 runner's discipline (:mod:`repro.eval.parallel`):

* Workers never receive pickled megabyte trace objects.  They rebuild the
  evaluator from its small :meth:`FitnessEvaluator.spec` recipe and
  regenerate traces deterministically — the exact derivation the serial
  path uses — so parallel fitness values are bit-identical to serial ones.
* Within each worker, the module-level workload/baseline memos in
  :mod:`repro.ga.fitness` and the transition-table compile cache in
  :mod:`repro.kernels` are shared across every evaluation that worker
  performs: one compiled table set + one trace copy serve the whole run.
* Results are returned in submission order (``pool.map``), so the caller's
  selection logic is order-stable and ``seed ⇒ output`` determinism holds
  for any worker count.

:class:`FitnessMemo` sits in front of the evaluator: every search routes
its batches through one, so a canonical IPV tuple is simulated at most
once per run — across generations, hill-climbing passes and duplicate
genomes alike — and every result is the exact float the simulator
produced.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder, current_recorder, install_recorder, span
from .fitness import FitnessEvaluator

__all__ = ["FitnessMemo", "PopulationEvaluator"]

_WORKER_EVALUATOR: Optional[FitnessEvaluator] = None

#: GA worker telemetry: [SpoolWriter, MetricsRegistry, SpanRecorder,
#: last-heartbeat-monotonic].  None when the pool was started without a
#: spool directory.
_WORKER_TELEMETRY: Optional[list] = None

#: Heartbeats are throttled worker-side: IPV evaluations can be orders of
#: magnitude quicker than matrix jobs, and one atomic file replace per
#: evaluation would turn the spool into an I/O hot spot.
_HEARTBEAT_INTERVAL_SEC = 0.5


def _worker_final_publish() -> None:  # pragma: no cover - runs at exit
    """atexit hook: flush the worker's final cumulative snapshot.

    Per-evaluation publishes are throttled, so without this the tail of a
    worker's metrics (everything since the last throttled write) would be
    lost when ``Pool.close()``/``join()`` lets the process exit.
    """
    telemetry = _WORKER_TELEMETRY
    if telemetry is None:
        return
    writer, registry, recorder, _ = telemetry
    try:
        writer.publish(registry=registry, recorder=recorder, force=True)
    except Exception:
        pass


def _init_worker(spec: dict, spool_dir: Optional[str] = None) -> None:
    """Pool initializer: rebuild the evaluator once per worker process."""
    global _WORKER_EVALUATOR, _WORKER_TELEMETRY
    _WORKER_EVALUATOR = FitnessEvaluator.from_spec(spec)
    if spool_dir:
        from ..obs.shipping import SpoolWriter

        recorder = SpanRecorder(process_label=f"ga-worker-{os.getpid()}")
        install_recorder(recorder)
        _WORKER_TELEMETRY = [
            SpoolWriter(spool_dir, min_interval=_HEARTBEAT_INTERVAL_SEC),
            MetricsRegistry(),
            recorder,
            0.0,
        ]
        _WORKER_TELEMETRY[0].heartbeat()
        atexit.register(_worker_final_publish)


def _worker_evaluate(chunk: Tuple[Tuple[int, ...], ...]) -> List[float]:
    """Score one contiguous sub-population with ``evaluate_many``.

    ``evaluate_many`` picks the engine for the batch (the columnar
    lockstep pass or the per-IPV loop), so one worker amortizes a trace
    pass over all of its lanes; results stay in chunk order so the
    caller's flatten preserves submission order.
    """
    telemetry = _WORKER_TELEMETRY
    if telemetry is None:
        return _WORKER_EVALUATOR.evaluate_many(chunk)
    writer, registry, recorder, last_hb = telemetry
    now = time.monotonic()
    if now - last_hb >= _HEARTBEAT_INTERVAL_SEC:
        telemetry[3] = now
        writer.heartbeat()
    started = time.perf_counter()
    with span("ga.worker_evaluate", lanes=len(chunk)):
        fitnesses = _WORKER_EVALUATOR.evaluate_many(chunk)
    registry.counter(
        "repro_ga_worker_evaluations_total",
        "IPV fitness evaluations performed in GA worker processes",
    ).inc(len(chunk))
    registry.gauge(
        "repro_ga_worker_evaluate_seconds_total",
        "Wall seconds spent evaluating fitness in GA worker processes",
    ).inc(time.perf_counter() - started)
    writer.publish(registry=registry, recorder=recorder, force=False)
    return fitnesses


class PopulationEvaluator:
    """Evaluate batches of IPVs, serially or over a spawn-safe pool.

    Parameters
    ----------
    evaluator:
        The fitness evaluator.  ``workers <= 1`` evaluates in-process with
        it; ``workers > 1`` ships its :meth:`~FitnessEvaluator.spec` to a
        persistent worker pool (one evaluator rebuild per worker, reused
        across every batch until :meth:`close`).
    workers:
        Worker process count.  ``0``/``1`` — serial reference path.
    mp_context:
        ``multiprocessing`` start method; ``"spawn"`` (default) matches the
        PR-1 runner and works everywhere fork is unsafe.
    telemetry:
        Cross-process telemetry spool (parallel pools only).
        ``None``/``True`` — workers spool metrics/spans through a private
        temp directory that :meth:`close` merges and removes; ``False`` —
        off; a path — spool under that directory and keep it
        (:attr:`last_spool_dir`).  After :meth:`close`, worker metrics are
        summed into :attr:`worker_metrics` and worker spans merged into
        the installed :class:`~repro.obs.spans.SpanRecorder` (if any);
        the scan summary is :attr:`last_spool_state`.
    """

    def __init__(
        self,
        evaluator: FitnessEvaluator,
        workers: int = 0,
        mp_context: str = "spawn",
        telemetry: Union[None, bool, str, Path] = None,
    ):
        self.evaluator = evaluator
        self.workers = int(workers or 0)
        self.evaluations = 0
        self._pool = None
        #: Summed worker-side instruments, populated by :meth:`close`.
        self.worker_metrics = MetricsRegistry()
        self.last_spool_state = None
        self.last_spool_dir: Optional[Path] = None
        self._spool_dir: Optional[Path] = None
        self._owned_spool = False
        if self.workers > 1:
            if telemetry is None or telemetry is True:
                self._spool_dir = Path(tempfile.mkdtemp(prefix="repro-ga-spool-"))
                self._owned_spool = True
            elif telemetry is not False:
                base = Path(telemetry).expanduser()
                self._spool_dir = base / f"ga-{os.getpid()}-{id(self):x}"
                self._spool_dir.mkdir(parents=True, exist_ok=True)
            context = multiprocessing.get_context(mp_context)
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(
                    evaluator.spec(),
                    str(self._spool_dir) if self._spool_dir else None,
                ),
            )

    # ------------------------------------------------------------------
    def evaluate_all(self, individuals: Sequence[Sequence[int]]) -> List[float]:
        """Fitness of every individual, in input order (deterministic)."""
        batch = [tuple(ind) for ind in individuals]
        self.evaluations += len(batch)
        if self._pool is None:
            return self.evaluator.evaluate_many(batch)
        # One contiguous slice per worker: each worker's evaluate_many
        # picks the engine and pays for one pass over the memoized traces.
        with span("ga.evaluate_batch", batch=len(batch),
                  workers=self.workers):
            parts = self._pool.map(_worker_evaluate, self._chunks(batch),
                                   chunksize=1)
        return [fitness for part in parts for fitness in part]

    def _chunks(
        self, batch: List[Tuple[int, ...]]
    ) -> List[Tuple[Tuple[int, ...], ...]]:
        """Split ``batch`` into ≤``workers`` contiguous, near-even slices."""
        n = len(batch)
        workers = min(self.workers, n) or 1
        size, extra = divmod(n, workers)
        chunks = []
        start = 0
        for i in range(workers):
            stop = start + size + (1 if i < extra else 0)
            chunks.append(tuple(batch[start:stop]))
            start = stop
        return chunks

    def evaluate(self, individual: Sequence[int]) -> float:
        """Single-individual convenience (always in-process)."""
        self.evaluations += 1
        return self.evaluator.evaluate(tuple(individual))

    # ------------------------------------------------------------------
    def heartbeats(self) -> dict:
        """Latest worker heartbeat timestamps (live watchdog input)."""
        if self._spool_dir is None:
            return {}
        from ..obs.shipping import read_spool

        return dict(read_spool(self._spool_dir).heartbeats)

    def close(self) -> None:
        """Shut the worker pool down and merge its telemetry (idempotent).

        ``Pool.join`` waits for the workers to exit, and each worker's
        ``atexit`` hook force-publishes its final cumulative snapshot on
        the way out — so the merge below sees complete totals even though
        per-evaluation publishes are throttled.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._spool_dir is not None:
            from ..obs.shipping import merge_spool

            self.last_spool_state = merge_spool(
                self._spool_dir, registry=self.worker_metrics,
                recorder=current_recorder(),
            )
            if self._owned_spool:
                shutil.rmtree(self._spool_dir, ignore_errors=True)
                self.last_spool_dir = None
            else:
                self.last_spool_dir = self._spool_dir
            self._spool_dir = None

    def __enter__(self) -> "PopulationEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = f"{self.workers} workers" if self._pool else "serial"
        return f"PopulationEvaluator({mode}, {self.evaluations} evaluations)"


class FitnessMemo:
    """Bounded LRU of simulated fitness keyed by canonical IPV tuple.

    Stores the exact float the simulator returned, so routing a batch
    through the memo is bit-identical to re-simulating it.  One memo
    serves a whole search run: GA generations, hill-climbing passes and
    duplicate genomes all share it.
    """

    def __init__(self, limit: int = 1 << 20):
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = int(limit)
        self._memo: "OrderedDict[Tuple[int, ...], float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, entries: Tuple[int, ...]) -> Optional[float]:
        value = self._memo.get(entries)
        if value is not None:
            self._memo.move_to_end(entries)
        return value

    def put(self, entries: Tuple[int, ...], fitness: float) -> None:
        self._memo[entries] = fitness
        while len(self._memo) > self.limit:
            self._memo.popitem(last=False)

    def evaluate_all(
        self, pop_eval, individuals: Sequence[Sequence[int]]
    ) -> List[float]:
        """``pop_eval.evaluate_all`` with memoization and in-batch dedup.

        Only tuples never simulated before reach the evaluator; results
        come back in input order and duplicate inputs (within the batch
        or across calls) receive the identical cached float.  Fresh
        results are read from the batch's own scores, not the memo, so a
        batch with more new tuples than ``limit`` still returns them all.
        """
        batch = [tuple(ind) for ind in individuals]
        results: List[Optional[float]] = [None] * len(batch)
        fresh: List[Tuple[int, ...]] = []
        fresh_pos: Dict[Tuple[int, ...], int] = {}
        for i, entries in enumerate(batch):
            cached = self.get(entries)
            if cached is not None:
                self.hits += 1
                results[i] = cached
            elif entries in fresh_pos:
                self.hits += 1  # in-batch duplicate: one simulation serves all
            else:
                self.misses += 1
                fresh_pos[entries] = len(fresh)
                fresh.append(entries)
        if fresh:
            scores = pop_eval.evaluate_all(fresh)
            for entries, score in zip(fresh, scores):
                self.put(entries, score)
            for i, entries in enumerate(batch):
                if results[i] is None:
                    results[i] = scores[fresh_pos[entries]]
        return results  # type: ignore[return-value]

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "size": len(self._memo),
            "limit": self.limit,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
