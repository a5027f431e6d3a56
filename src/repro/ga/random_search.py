"""Uniformly random IPV design-space sampling (paper Figure 1 / Section 4.1).

The paper samples 15 000 uniformly random IPVs, evaluates each with the
linear-CPI fitness, and sorts the speedups: most random vectors lose to LRU,
a thin tail wins by up to ~2.8 %.  This module reproduces that experiment at
configurable sample counts.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..core.ipv import IPV
from .fitness import FitnessEvaluator
from .parallel import FitnessMemo, PopulationEvaluator

__all__ = ["random_search"]


def random_search(
    evaluator: FitnessEvaluator,
    samples: int = 500,
    seed: int = 0,
    workers: int = 0,
    memo: Optional[FitnessMemo] = None,
) -> List[Tuple[float, IPV]]:
    """Evaluate ``samples`` random IPVs; return (fitness, ipv) ascending.

    The ascending sort matches Figure 1's x-axis ("sorted points in the
    design space").

    ``memo`` shares a cross-run :class:`FitnessMemo` so duplicate draws
    (likely at small k) and candidates seen by an earlier search are not
    re-simulated; the returned fitness floats are bit-identical either way.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    k = evaluator.k
    rng = random.Random(seed)
    candidates = [
        tuple(rng.randrange(k) for _ in range(k + 1)) for _ in range(samples)
    ]
    fitness_memo = memo if memo is not None else FitnessMemo()
    with PopulationEvaluator(evaluator, workers=workers) as pop_eval:
        scores = fitness_memo.evaluate_all(pop_eval, candidates)
    results = [
        (score, IPV(entries, name=f"rand{i}"))
        for i, (score, entries) in enumerate(zip(scores, candidates))
    ]
    results.sort(key=lambda p: p[0])
    return results
