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

import multiprocessing
from collections import OrderedDict
from contextlib import nullcontext
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.spans import current_recorder, profiled, span
from .fitness import FitnessEvaluator

__all__ = ["FitnessMemo", "PopulationEvaluator"]

_WORKER_EVALUATOR: Optional[FitnessEvaluator] = None


def _init_worker(spec: dict) -> None:
    """Pool initializer: rebuild the evaluator once per worker process."""
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = FitnessEvaluator.from_spec(spec)


def _worker_evaluate(
    chunk: Tuple[Tuple[int, ...], ...], profile: bool = False
) -> Tuple[List[float], Optional[dict]]:
    """Score one contiguous sub-population with ``evaluate_many``.

    ``evaluate_many`` picks the engine for the batch (the columnar
    lockstep pass or the per-IPV loop), so one worker amortizes a trace
    pass over all of its lanes; results stay in chunk order so the
    caller's flatten preserves submission order.  With ``profile`` set
    (the parent has a span recorder installed) the chunk records into a
    fresh recorder and returns its
    :meth:`~repro.obs.spans.SpanRecorder.payload` next to the fitnesses;
    otherwise the second element is None.
    """
    with profiled() if profile else nullcontext() as recorder:
        with span("ga.worker_evaluate", lanes=len(chunk)):
            fitnesses = _WORKER_EVALUATOR.evaluate_many(chunk)
    return fitnesses, recorder.payload() if recorder is not None else None


class PopulationEvaluator:
    """Evaluate batches of IPVs, serially or over a spawn-safe pool.

    Parameters
    ----------
    evaluator:
        The fitness evaluator.  ``workers <= 1`` evaluates in-process with
        it; ``workers > 1`` ships its :meth:`~FitnessEvaluator.spec` to a
        persistent spawn-context worker pool (one evaluator rebuild per
        worker, reused across every batch until :meth:`close`).
    workers:
        Worker process count.  ``0``/``1`` — serial reference path.

    While a span recorder is installed, each worker chunk returns the
    spans it recorded with its fitnesses, and they are merged into that
    recorder as the batch comes back.
    """

    def __init__(self, evaluator: FitnessEvaluator, workers: int = 0):
        self.evaluator = evaluator
        self.workers = int(workers or 0)
        self.evaluations = 0
        self._pool = None
        if self.workers > 1:
            context = multiprocessing.get_context("spawn")
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(evaluator.spec(),),
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
        recorder = current_recorder()
        work = (_worker_evaluate if recorder is None
                else partial(_worker_evaluate, profile=True))
        with span("ga.evaluate_batch", batch=len(batch),
                  workers=self.workers):
            parts = self._pool.map(work, self._chunks(batch), chunksize=1)
        fitnesses: List[float] = []
        for part, spans in parts:
            fitnesses.extend(part)
            if spans is not None:
                recorder.merge_payload(spans)
        return fitnesses

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
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

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
