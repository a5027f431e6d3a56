"""Check columnar-engine :class:`BatchCounters` against a scalar run.

The engine accumulates per-lane/per-set hit, miss, eviction and
cold-fill counts as numpy arrays (see
:class:`repro.engine.columnar.BatchCounters`).
:func:`reconcile_with_stats` proves a lane's totals against a scalar
:class:`repro.cache.stats.CacheStats` over the same stream, which
``make smoke-analytics`` and the conformance tests run on every change.
"""

from __future__ import annotations

from typing import List

__all__ = ["reconcile_with_stats"]

#: Fields compared by :func:`reconcile_with_stats`; ``accesses`` first so
#: a truncated-stream mismatch reads as the cause, not a symptom.
_RECONCILE_FIELDS = ("accesses", "hits", "misses", "evictions")


def reconcile_with_stats(
    counters, lane: int, stats, raise_on_mismatch: bool = True
) -> List[str]:
    """Compare one lane's totals against a scalar ``CacheStats``.

    Returns the list of mismatch descriptions (empty means the lane
    reconciles exactly); with ``raise_on_mismatch`` any discrepancy
    raises ``ValueError`` instead.  Only valid for whole-stream
    comparisons: the scalar stats must cover the same accesses the
    engine replayed (``cache.reset_stats()`` mid-stream breaks the
    invariant, use ``measured_misses`` for that view).
    """
    totals = counters.totals(lane)
    mismatches = [
        f"{field}: engine {totals[field]} != scalar {getattr(stats, field)}"
        for field in _RECONCILE_FIELDS
        if totals[field] != getattr(stats, field)
    ]
    if mismatches and raise_on_mismatch:
        raise ValueError(
            f"lane {lane} does not reconcile: " + "; ".join(mismatches)
        )
    return mismatches
