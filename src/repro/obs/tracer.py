"""The event tracer: turns simulator hook-points into structured events.

A :class:`Tracer` is attached to a :class:`repro.cache.cache.
SetAssociativeCache` (``cache.attach_tracer(tracer)``) or passed to
:func:`repro.eval.runner.run_trace`.  When no tracer is attached the cache
hot path pays exactly one ``is not None`` test per access; everything in
this module runs only on the traced path.

Besides forwarding events to its sink, a tracer can feed a
:class:`~repro.obs.metrics.MetricsRegistry`:

* ``repro_trace_events_total{kind=...}`` counters per event kind;
* ``repro_insertion_position`` histogram of chosen insertion positions;
* ``repro_promotion_distance`` histogram of ``pos_before - pos_after``
  on promotions (negative = demotion);
* ``repro_psel_value{counter=...}`` gauges of the latest sampled
  saturating-counter values;
* ``repro_duel_flips_total``, the follower policy changes.

:func:`registry_from_events` rebuilds the same registry from the events
alone, so ``repro obs metrics`` on an unsampled JSONL prints what
``repro trace --metrics-out`` wrote.

PSEL timelines are the stream of ``psel_sample`` events themselves; set
``psel_every=N`` to sample every N accesses.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .events import TraceEvent
from .metrics import MetricsRegistry
from .sinks import ListSink, SamplingFilter

__all__ = ["Tracer", "replay_counts", "registry_from_events"]


class Tracer:
    """Collects simulator events into a sink and (optionally) a registry.

    Parameters
    ----------
    sink:
        Any object with ``write(event)``/``close()``.  Defaults to a fresh
        :class:`~repro.obs.sinks.ListSink`.  Wrap in a
        :class:`~repro.obs.sinks.SamplingFilter` (or pass ``sample_sets``
        / ``sample_every`` here) to trace a subset.
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` to feed; ``None``
        creates a private one (exposed as ``tracer.registry``).
    sample_sets, sample_every:
        Convenience: when given, the sink is wrapped in a
        :class:`SamplingFilter` with these knobs.
    psel_every:
        Sample the attached policy's set-dueling counters every N
        accesses (0 disables PSEL sampling).
    """

    def __init__(
        self,
        sink=None,
        registry: Optional[MetricsRegistry] = None,
        sample_sets: Optional[Iterable[int]] = None,
        sample_every: int = 1,
        psel_every: int = 0,
    ):
        if psel_every < 0:
            raise ValueError("psel_every must be >= 0")
        sink = sink if sink is not None else ListSink()
        if sample_sets is not None or sample_every != 1:
            sink = SamplingFilter(sink, sets=sample_sets, every=sample_every)
        self.sink = sink
        self.registry = registry if registry is not None else MetricsRegistry()
        self.psel_every = psel_every
        self.events_emitted = 0
        self._write = sink.write
        self._kind_counters = {}
        self._insertion_hist = None
        self._promotion_hist = None

    # ------------------------------------------------------------------
    # Registry plumbing (lazy so unused instruments never exist).
    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        counter = self._kind_counters.get(kind)
        if counter is None:
            counter = self.registry.counter(
                "repro_trace_events_total",
                "Trace events emitted, by kind",
                labels={"kind": kind},
            )
            self._kind_counters[kind] = counter
        counter.inc()
        self.events_emitted += 1

    def _observe_insertion(self, pos: int) -> None:
        hist = self._insertion_hist
        if hist is None:
            hist = self.registry.histogram(
                "repro_insertion_position",
                bounds=list(range(32)),
                help="Recency position chosen for incoming blocks",
            )
            self._insertion_hist = hist
        hist.observe(pos)

    def _observe_promotion(self, distance: int) -> None:
        hist = self._promotion_hist
        if hist is None:
            hist = self.registry.histogram(
                "repro_promotion_distance",
                bounds=list(range(-31, 32)),
                help="pos_before - pos_after on promotion (negative = demotion)",
            )
            self._promotion_hist = hist
        hist.observe(distance)

    # ------------------------------------------------------------------
    # Emission hooks (called by the cache's traced access path).
    # ------------------------------------------------------------------
    def hit(self, access, set_index, way, pos_before, pos_after, policy,
            block) -> None:
        self._count("hit")
        self._write(TraceEvent(
            "hit", access, set=set_index, way=way, pos_before=pos_before,
            pos_after=pos_after, policy=policy, block=block,
        ))
        if (
            pos_before is not None
            and pos_after is not None
            and pos_before != pos_after
        ):
            self._count("promotion")
            self._write(TraceEvent(
                "promotion", access, set=set_index, way=way,
                pos_before=pos_before, pos_after=pos_after, policy=policy,
            ))
            self._observe_promotion(pos_before - pos_after)

    def miss(self, access, set_index, policy, block) -> None:
        self._count("miss")
        self._write(TraceEvent(
            "miss", access, set=set_index, policy=policy, block=block,
        ))

    def eviction(self, access, set_index, way, pos_before, dirty,
                 policy) -> None:
        self._count("eviction")
        self._write(TraceEvent(
            "eviction", access, set=set_index, way=way,
            pos_before=pos_before, value=1 if dirty else 0, policy=policy,
        ))

    def insertion(self, access, set_index, way, pos_after, policy,
                  block) -> None:
        self._count("insertion")
        self._write(TraceEvent(
            "insertion", access, set=set_index, way=way, pos_after=pos_after,
            policy=policy, block=block,
        ))
        if pos_after is not None:
            self._observe_insertion(pos_after)

    def bypass(self, access, set_index, policy, block) -> None:
        self._count("bypass")
        self._write(TraceEvent(
            "bypass", access, set=set_index, policy=policy, block=block,
        ))

    def duel_flip(self, access, set_index, old_policy, new_policy) -> None:
        self._count("duel_flip")
        self._write(TraceEvent(
            "duel_flip", access, set=set_index, policy=new_policy,
            value=old_policy,
        ))
        self.registry.counter(
            "repro_duel_flips_total", "Set-dueling follower policy changes"
        ).inc()

    def psel_tick(self, access, selector) -> None:
        """Sample the selector's counters if the interval says so."""
        if not self.psel_every or selector is None:
            return
        if access % self.psel_every:
            return
        for name, counter in selector.counters.items():
            self._count("psel_sample")
            self._write(TraceEvent(
                "psel_sample", access, label=name, value=counter.value,
            ))
            self.registry.gauge(
                "repro_psel_value", "Latest sampled saturating-counter value",
                labels={"counter": name},
            ).set(counter.value)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def registry_from_events(
    events: Iterable[TraceEvent],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Rebuild the tracer's metrics registry from a recorded event stream.

    Produces the same instruments a live :class:`Tracer` would have fed —
    per-kind event counters, the insertion-position and promotion-distance
    histograms, and the latest PSEL gauges — so ``repro obs metrics`` can
    re-derive exports from a JSONL file long after the run.
    """
    registry = registry if registry is not None else MetricsRegistry()

    class _Null:
        @staticmethod
        def write(event):
            pass

        @staticmethod
        def close():
            pass

    tracer = Tracer(sink=_Null(), registry=registry)
    for event in events:
        tracer._count(event.kind)
        if event.kind == "insertion" and event.pos_after is not None:
            tracer._observe_insertion(event.pos_after)
        elif event.kind == "promotion" and event.pos_before is not None \
                and event.pos_after is not None:
            tracer._observe_promotion(event.pos_before - event.pos_after)
        elif event.kind == "duel_flip":
            registry.counter(
                "repro_duel_flips_total",
                "Set-dueling follower policy changes",
            ).inc()
        elif event.kind == "psel_sample":
            registry.gauge(
                "repro_psel_value",
                "Latest sampled saturating-counter value",
                labels={"counter": event.label or "psel"},
            ).set(event.value)
    return registry


def replay_counts(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Replay a stream of events into aggregate counts.

    The returned dict mirrors :class:`repro.cache.stats.CacheStats`
    accounting — ``accesses``/``hits``/``misses``/``evictions``/
    ``bypasses`` plus event-layer totals — so a full (unsampled) trace can
    be checked against the untraced simulation bit for bit.
    """
    counts = {
        "accesses": 0,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "insertions": 0,
        "bypasses": 0,
        "promotions": 0,
        "duel_flips": 0,
        "psel_samples": 0,
    }
    plural = {
        "hit": "hits",
        "miss": "misses",
        "eviction": "evictions",
        "insertion": "insertions",
        "bypass": "bypasses",
        "promotion": "promotions",
        "duel_flip": "duel_flips",
        "psel_sample": "psel_samples",
    }
    for event in events:
        key = plural.get(event.kind)
        if key is None:
            raise ValueError(f"unknown event kind {event.kind!r}")
        counts[key] += 1
    counts["accesses"] = counts["hits"] + counts["misses"]
    return counts
