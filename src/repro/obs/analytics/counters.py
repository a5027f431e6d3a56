"""Flush columnar-engine :class:`BatchCounters` into the obs pipeline.

The engine accumulates per-lane/per-set hit, miss, eviction and cold-fill
counts as numpy arrays (see :class:`repro.engine.columnar.BatchCounters`);
this module is the bridge from those arrays to the three existing
observability sinks, all one-shot and numpy-free on output:

* :func:`publish_batch_counters` — per-lane gauges plus a weighted
  hit-depth histogram in a :class:`repro.obs.metrics.MetricsRegistry`
  (gauges are *set*, so republishing a snapshot never double-counts —
  same convention as :func:`repro.kernels.tables.publish_kernel_gauges`);
* :func:`counters_manifest_extra` — a JSON-safe block for the ``extra``
  slot of :func:`repro.obs.provenance.build_manifest`;
* :func:`sampled_miss_events` — a sampled ``miss`` event stream in the
  :data:`repro.obs.events.EVENT_SCHEMA` wire format, built from the
  ``collect_miss_indices`` output of the same run.

:func:`reconcile_with_stats` closes the loop: it proves a lane's totals
against a scalar :class:`repro.cache.stats.CacheStats` over the same
stream, which ``make smoke-analytics`` and the conformance tests run on
every change.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..events import TraceEvent, validate_event_dict

__all__ = [
    "counters_manifest_extra",
    "publish_batch_counters",
    "reconcile_with_stats",
    "sampled_miss_events",
]

#: Fields compared by :func:`reconcile_with_stats`; ``accesses`` first so
#: a truncated-stream mismatch reads as the cause, not a symptom.
_RECONCILE_FIELDS = ("accesses", "hits", "misses", "evictions")


def publish_batch_counters(
    counters,
    registry,
    lane_names: Optional[Sequence[str]] = None,
) -> None:
    """Publish one run's :class:`BatchCounters` into ``registry``.

    Per lane (labelled ``{"engine": "batch", "lane": name}``): gauges
    ``repro_engine_hits`` / ``_misses`` / ``_evictions`` /
    ``_cold_fills`` / ``_measured_misses`` and a
    ``repro_engine_hit_depth`` histogram flushed with *weighted*
    observations — one ``observe(d, weight=count)`` per recency depth,
    no Python loop over hits.  ``lane_names`` defaults to the lane index
    as a string.
    """
    if lane_names is None:
        lane_names = [str(lane) for lane in range(counters.lanes)]
    elif len(lane_names) != counters.lanes:
        raise ValueError(
            f"{len(lane_names)} lane names for {counters.lanes} lanes"
        )
    registry.gauge(
        "repro_engine_accesses",
        "Accesses replayed by the last columnar engine run",
        labels={"engine": "batch"},
    ).set(counters.accesses)
    depth_bounds = list(range(counters.assoc))
    for lane, name in enumerate(lane_names):
        labels = {"engine": "batch", "lane": str(name)}
        totals = counters.totals(lane)
        for field, help_text in (
            ("hits", "Whole-stream hits"),
            ("misses", "Whole-stream misses"),
            ("evictions", "Whole-stream evictions"),
            ("cold_fills", "Cold fills (first fill of a way)"),
            ("measured_misses", "Misses past warmup"),
        ):
            registry.gauge(
                f"repro_engine_{field}", help_text, labels=labels
            ).set(totals[field])
        hist = registry.histogram(
            "repro_engine_hit_depth",
            bounds=depth_bounds,
            help=(
                "Pre-promotion recency depth of hits (sampled every "
                "depth_sample lockstep steps)"
            ),
            labels=labels,
        )
        for depth, count in enumerate(counters.hit_depth_histogram(lane)):
            hist.observe(depth, weight=int(count))


def counters_manifest_extra(
    counters, lane_names: Optional[Sequence[str]] = None
) -> dict:
    """JSON-safe provenance block for one run's counters.

    Drops into the ``extra`` argument of
    :func:`repro.obs.provenance.build_manifest` (e.g. as
    ``extra={"engine_counters": counters_manifest_extra(c)}``), so a
    manifest pins not just *what* ran but the hit/miss/eviction totals
    and depth profile it produced.
    """
    if lane_names is None:
        lane_names = [str(lane) for lane in range(counters.lanes)]
    elif len(lane_names) != counters.lanes:
        raise ValueError(
            f"{len(lane_names)} lane names for {counters.lanes} lanes"
        )
    lanes: List[dict] = []
    for lane, name in enumerate(lane_names):
        entry = dict(counters.totals(lane))
        entry["lane"] = str(name)
        entry["hit_depth"] = counters.hit_depth_histogram(lane)
        lanes.append(entry)
    return {
        "schema": "repro-engine-counters/1",
        "engine": "batch",
        "num_sets": counters.num_sets,
        "assoc": counters.assoc,
        "warmup": counters.warmup,
        "accesses": counters.accesses,
        "depth_sample": counters.depth_sample,
        "lanes": lanes,
    }


def sampled_miss_events(
    addresses: Sequence[int],
    miss_indices: Iterable[int],
    num_sets: int,
    sample: int = 64,
    policy: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[TraceEvent]:
    """Sampled ``miss`` events from a ``collect_miss_indices`` run.

    The columnar engine keeps no per-access event state (that is why it
    is fast), but its ``run(collect_miss_indices=True)`` output pins each
    measured miss to its global access index.  This rebuilds every
    ``sample``-th of them as a schema-valid
    :class:`~repro.obs.events.TraceEvent` — the same wire format
    ``repro.obs.tracer`` emits, so replay/summary tooling consumes both
    streams interchangeably.  Events are validated against
    :data:`~repro.obs.events.EVENT_SCHEMA` before being returned.
    """
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    mask = num_sets - 1
    if num_sets <= 0 or (num_sets & mask):
        raise ValueError(f"num_sets must be a power of two, got {num_sets}")
    events: List[TraceEvent] = []
    for rank, index in enumerate(miss_indices):
        if rank % sample:
            continue
        if limit is not None and len(events) >= limit:
            break
        address = int(addresses[int(index)])
        event = TraceEvent(
            "miss",
            int(index),
            set=address & mask,
            block=address,
            policy=policy,
        )
        validate_event_dict(event.to_dict())
        events.append(event)
    return events


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
