"""Hill-climbing refinement of an IPV (paper Section 2.6).

The paper notes the GA's vector is not locally optimal — e.g. zeroing the
first twelve GIPLR entries nudges the speedup from 3.1 % to 3.12 % — and
suggests hill climbing as the refinement.  This climber tries alternative
values entry-by-entry and keeps strict improvements until a full pass makes
no progress.

Every candidate batch is routed through a cross-run
:class:`~repro.ga.parallel.FitnessMemo` keyed by the canonical IPV
tuple.  This fixes a long-standing inefficiency: the exact
first-improvement replay re-visits every entry on every pass, and before
the memo a variant whose fitness was already computed in pass 1 was
re-*simulated* in pass 2 whenever the current vector had not changed at
that entry.  The memo returns the exact float the simulator produced, so
the refinement trail is bit-identical to the unmemoized walk — only the
redundant simulations disappear (asserted by a call-counting regression
test in ``tests/ga/test_search.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ipv import IPV
from .fitness import FitnessEvaluator
from .parallel import FitnessMemo, PopulationEvaluator

__all__ = ["HillClimbResult", "hill_climb"]


class HillClimbResult:
    """Refined vector plus the improvement trail."""

    def __init__(
        self,
        best: IPV,
        best_fitness: float,
        start_fitness: float,
        steps: List[Tuple[int, int, float]],
        evaluations: int,
        memo: Optional[dict] = None,
    ):
        self.best = best
        self.best_fitness = best_fitness
        self.start_fitness = start_fitness
        self.steps = steps  # (entry index, new value, fitness after)
        self.evaluations = evaluations
        #: :meth:`FitnessMemo.stats` snapshot for the climb.
        self.memo = memo

    @property
    def improvement(self) -> float:
        return self.best_fitness - self.start_fitness

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HillClimbResult(fitness {self.start_fitness:.4f} -> "
            f"{self.best_fitness:.4f} in {len(self.steps)} steps)"
        )


def hill_climb(
    evaluator: FitnessEvaluator,
    start: IPV,
    candidate_values: Optional[Sequence[int]] = None,
    max_passes: int = 2,
    workers: int = 0,
    memo: Optional[FitnessMemo] = None,
) -> HillClimbResult:
    """First-improvement hill climbing over single-entry changes.

    ``candidate_values`` restricts the values tried per entry (default: all
    positions 0..k-1, which costs (k+1)*k evaluations per pass).

    ``workers > 1`` scores each entry's candidate batch over the spawn-safe
    :class:`~repro.ga.parallel.PopulationEvaluator` and then replays the
    sequential accept rule against the batch scores.  Because a candidate's
    fitness depends only on the value at the entry under consideration (the
    other entries are frozen during the scan), the replay is bit-identical
    to the serial first-improvement walk — same steps, same evaluation
    count, same refined vector.

    ``memo`` shares a cross-run fitness memo (e.g. with the GA whose
    winner is being refined); ``None`` creates a private one — either
    way, variants revisited across passes are never re-simulated.
    """
    k = evaluator.k
    values = list(candidate_values) if candidate_values is not None else list(range(k))
    current = list(start.entries)
    pop_eval = PopulationEvaluator(evaluator, workers=workers)
    fitness_memo = memo if memo is not None else FitnessMemo()
    try:
        current_fitness = fitness_memo.evaluate_all(
            pop_eval, [tuple(current)]
        )[0]
        start_fitness = current_fitness
        steps: List[Tuple[int, int, float]] = []
        evaluations = 1
        for _ in range(max_passes):
            improved = False
            for index in range(k + 1):
                original = current[index]
                # One fitness per distinct candidate value: the scan only
                # ever varies this entry, so f(value) is scan-invariant.
                # f(original) is the fitness we already hold.
                score_of: Dict[int, float] = {original: current_fitness}
                batch = [v for v in dict.fromkeys(values) if v != original]
                variants = []
                for value in batch:
                    variant = list(current)
                    variant[index] = value
                    variants.append(tuple(variant))
                score_of.update(zip(
                    batch, fitness_memo.evaluate_all(pop_eval, variants)
                ))
                # Replay the sequential first-improvement scan exactly.
                for value in values:
                    if value == original:
                        continue
                    fitness = score_of[value]
                    evaluations += 1
                    if fitness > current_fitness:
                        current_fitness = fitness
                        steps.append((index, value, fitness))
                        improved = True
                        original = value
                current[index] = original
            if not improved:
                break
    finally:
        pop_eval.close()
    return HillClimbResult(
        IPV(current, name=f"{start.name}+hc"),
        current_fitness,
        start_fitness,
        steps,
        evaluations,
        memo=fitness_memo.stats(),
    )
