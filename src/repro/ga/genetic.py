"""Genetic algorithm for evolving IPVs (paper Sections 2.5 and 4.2).

The operators follow the paper: single-point crossover between two parent
vectors, 5 % point mutation (one random element replaced by a random
position), a large initial population shrunk for subsequent generations,
and elitism.  The paper ran populations of 20 000/4 000 on a cluster; the
defaults here are laptop-scale and configurable — the *algorithm* is the
contribution being reproduced, not the cluster.

Fan-out uses the spawn-safe :class:`~repro.ga.parallel.PopulationEvaluator`
the way the paper used MPI/pgapack: the fitness of each individual is
independent, workers rebuild the evaluator from a small spec (never a
pickled trace set), and results come back in submission order — so
``workers=N`` is bit-identical to the serial path for every ``N``.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.ipv import IPV
from ..obs.spans import span
from .fitness import FitnessEvaluator
from .parallel import FitnessMemo, PopulationEvaluator

__all__ = ["GAResult", "evolve_ipv", "crossover", "mutate"]

#: Probability that a freshly created individual suffers a point mutation.
MUTATION_RATE = 0.05


class GAResult:
    """Outcome of one GA run."""

    def __init__(
        self,
        best: IPV,
        best_fitness: float,
        history: List[float],
        evaluations: int,
        convergence: Optional[List[dict]] = None,
        memo: Optional[dict] = None,
    ):
        self.best = best
        self.best_fitness = best_fitness
        self.history = history  # best fitness per generation
        self.evaluations = evaluations
        #: Per-generation convergence records (best/median/p90, diversity,
        #: eval throughput) — see :mod:`repro.obs.analytics.convergence`.
        self.convergence = convergence if convergence is not None else []
        #: :meth:`FitnessMemo.stats` snapshot.
        self.memo = memo

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GAResult(best={list(self.best.entries)}, "
            f"fitness={self.best_fitness:.4f}, generations={len(self.history)})"
        )


def crossover(
    a: Sequence[int], b: Sequence[int], rng: random.Random
) -> Tuple[int, ...]:
    """Single-point crossover: a prefix of one parent, suffix of the other."""
    if len(a) != len(b):
        raise ValueError("parents must have equal length")
    cut = rng.randrange(1, len(a))
    return tuple(a[:cut]) + tuple(b[cut:])


def mutate(
    entries: Sequence[int],
    k: int,
    rng: random.Random,
    rate: float = MUTATION_RATE,
) -> Tuple[int, ...]:
    """With probability ``rate``, replace one random element (paper §4.2)."""
    entries = tuple(entries)
    if rng.random() >= rate:
        return entries
    index = rng.randrange(len(entries))
    out = list(entries)
    out[index] = rng.randrange(k)
    return tuple(out)


def _status_publisher(status_path):
    """StatusPublisher for a GA run, or ``None`` when status is disabled."""
    from ..obs.status import StatusPublisher, default_status_path

    path = status_path if status_path is not None else default_status_path()
    if not path:
        return None
    return StatusPublisher(path, kind="ga")


def evolve_ipv(
    evaluator: FitnessEvaluator,
    population_size: int = 40,
    initial_population_size: Optional[int] = None,
    generations: int = 12,
    mutation_rate: float = MUTATION_RATE,
    elite: int = 2,
    seed: int = 0,
    workers: int = 0,
    seeds: Optional[Sequence[IPV]] = None,
    on_generation: Optional[Callable[[int, float], None]] = None,
    status_path: Union[None, str, Path] = None,
    convergence_path: Union[None, str, Path] = None,
    memo: Optional[FitnessMemo] = None,
) -> GAResult:
    """Evolve an IPV against ``evaluator``.

    ``initial_population_size`` defaults to 5x the steady population,
    echoing the paper's 20 000 -> 4 000 schedule.  ``seeds`` inject known
    vectors (the paper seeds its pgapack stage with earlier GA winners).

    ``status_path`` publishes a live ``run-status.json`` per generation
    (``None`` falls back to ``$REPRO_STATUS_PATH``; unset disables it);
    the final record carries the best fitness, or ``phase: "failed"`` and
    the error if the search raised, and survives the run.  The whole
    search is wrapped in ``ga.run`` / ``ga.generation`` / ``ga.breed`` /
    ``ga.evaluate`` spans when a recorder is installed (no-ops
    otherwise); with ``workers > 1`` the workers' spans join them.

    Every batch is routed through a cross-generation :class:`FitnessMemo`
    keyed by the canonical IPV tuple, so duplicate genomes — common once
    the population converges — are never re-simulated; pass ``memo`` to
    share one memo across several searches (e.g. GA then hill climb).
    The memoized values are the exact simulator floats, so results stay
    bit-identical to a memo-less run.

    Every run computes per-generation convergence records (fitness
    best/median/p90, population diversity, eval throughput — see
    :func:`repro.obs.analytics.generation_stats`); they ride along on
    ``GAResult.convergence``, feed the live status fields, and with
    ``convergence_path`` are additionally persisted as an atomically
    rewritten JSON log that ``repro obs analyze`` renders.
    """
    k = evaluator.k
    length = k + 1
    rng = random.Random(seed)
    if initial_population_size is None:
        initial_population_size = 5 * population_size
    population: List[Tuple[int, ...]] = [
        tuple(s.entries) for s in (seeds or []) if s.k == k
    ]
    while len(population) < initial_population_size:
        population.append(tuple(rng.randrange(k) for _ in range(length)))

    status = _status_publisher(status_path)
    pop_eval = PopulationEvaluator(evaluator, workers=workers)
    fitness_memo = memo if memo is not None else FitnessMemo()

    def score_batch(batch: List[Tuple[int, ...]]):
        """(fitness, entries) pairs for ``batch``, in input order."""
        return list(zip(
            fitness_memo.evaluate_all(pop_eval, batch), batch
        ))

    from ..obs.analytics.convergence import ConvergenceLog, generation_stats

    convergence: List[dict] = []
    conv_log = None
    if convergence_path is not None:
        conv_log = ConvergenceLog(
            convergence_path,
            meta={"k": k, "seed": seed, "population": population_size,
                  "generations": generations, "workers": workers},
        )

    evaluations = 0
    history: List[float] = []
    try:
        with span("ga.run", k=k, generations=generations,
                  population=population_size, workers=workers):
            if status is not None:
                status.update(
                    force=True, phase="init-population",
                    jobs_total=generations, jobs_done=0,
                    population=len(population), workers_requested=workers,
                )
            with span("ga.init_population", size=len(population)):
                scored = score_batch(population)
            evaluations += len(population)
            scored.sort(key=lambda p: p[0], reverse=True)
            for generation in range(generations):
                with span("ga.generation", gen=generation) as gen_span:
                    survivors = scored[: max(2, population_size // 2)]
                    with span("ga.breed", gen=generation):
                        next_population: List[Tuple[int, ...]] = [
                            ind for _, ind in scored[:elite]
                        ]
                        while len(next_population) < population_size:
                            pa = survivors[rng.randrange(len(survivors))][1]
                            pb = survivors[rng.randrange(len(survivors))][1]
                            child = mutate(
                                crossover(pa, pb, rng), k, rng, mutation_rate
                            )
                            next_population.append(child)
                    fresh = next_population[elite:]
                    with span("ga.evaluate", gen=generation,
                              batch=len(fresh)):
                        eval_start = time.perf_counter()
                        fresh_scored = score_batch(fresh)
                        eval_elapsed = time.perf_counter() - eval_start
                    evaluations += len(fresh)
                    scored = scored[:elite] + fresh_scored
                    scored.sort(key=lambda p: p[0], reverse=True)
                    history.append(scored[0][0])
                    record = generation_stats(
                        generation, scored,
                        evaluations=evaluations,
                        batch_evaluations=len(fresh_scored),
                        elapsed_sec=eval_elapsed,
                    )
                    convergence.append(record)
                    if conv_log is not None:
                        conv_log.append(record)
                    gen_span.set(best_fitness=scored[0][0])
                if status is not None:
                    status.update(
                        phase=f"generation {generation + 1}/{generations}",
                        jobs_done=generation + 1,
                        jobs_total=generations,
                        best_fitness=scored[0][0],
                        evaluations=evaluations,
                        memo_hits=fitness_memo.hits,
                        fitness_median=record["median"],
                        fitness_p90=record["p90"],
                        unique_fraction=record["unique_fraction"],
                        eval_per_sec=record["eval_per_sec"],
                    )
                if on_generation is not None:
                    on_generation(generation, scored[0][0])
    except BaseException as exc:
        if status is not None:
            status.fail(exc)
        raise
    finally:
        pop_eval.close()

    best_fitness, best_entries = scored[0]
    if status is not None:
        status.finalize(
            phase="done", jobs_done=len(history), jobs_total=generations,
            best_fitness=best_fitness, evaluations=evaluations,
            memo_hits=fitness_memo.hits,
        )
    return GAResult(
        IPV(best_entries, name=f"evolved-s{seed}"),
        best_fitness,
        history,
        evaluations,
        convergence=convergence,
        memo=fitness_memo.stats(),
    )
