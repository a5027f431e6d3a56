"""Observability layer: tracing, metrics, provenance, and runtime telemetry.

The simulator's end-of-run counters say *what* happened; this package
records *why* (policy dynamics) and *where the time went* (runtime
telemetry).  All legs are dependency-free (stdlib only) and
zero-overhead when disabled:

* :mod:`repro.obs.events` / :mod:`repro.obs.tracer` / :mod:`repro.obs.sinks`
  — a structured event trace of the replacement-policy dynamics the paper's
  figures are built on: hits, misses, insertions (with the chosen PLRU
  position), promotions (position before/after), evictions, bypasses,
  set-dueling flips and sampled PSEL values.  Events flow through a
  :class:`~repro.obs.tracer.Tracer` into pluggable sinks (in-memory ring
  buffer, JSONL file) with optional per-set and per-interval sampling.
* :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  histograms) with Prometheus-text and JSON exporters.  The tracer's is
  the only one a command builds: ``repro trace --metrics-out`` writes it
  live, ``repro obs metrics`` rebuilds it from the JSONL.  Its one
  :class:`~repro.obs.metrics.Histogram` keeps exact, mergeable counts in
  fixed ``le`` buckets (registry histograms) or log-linear buckets (the
  latencies ``repro serve`` records per shard batch and per access).
* :mod:`repro.obs.provenance` — run manifests (config hash, policy kwargs,
  seed, code digest, git revision, host, wall time) written next to cached
  results and generated reports, so any number in a figure can be traced
  back to the exact code and configuration that produced it.
* :mod:`repro.obs.spans` — hierarchical span profiling (``with
  span("ga.generation", gen=i):``) exporting Chrome trace-event JSON and
  folded-stack flamegraph text; a no-op singleton when no recorder is
  installed.  Pool workers of a profiled run return their spans with
  their results, and the parent merges them into one timeline.
* :mod:`repro.obs.status` — live ``run-status.json`` publishing (phase,
  progress, throughput, ETA, worker liveness, and a serving run's
  latency and shard rows) rendered by ``repro obs watch``; the final
  state survives completion for post-mortems.
* :mod:`repro.obs.analytics` — cache-dynamics analytics: the vectorized
  Mattson miss-curve/stack-distance profiler, the check that columnar
  engine counters reconcile with a scalar run, GA convergence telemetry,
  and the ``repro obs analyze`` report builder.

The hot path (:meth:`repro.cache.cache.SetAssociativeCache.access`) pays a
single ``is not None`` check when tracing is off; the budget is enforced by
:func:`repro.obs.overhead.disabled_overhead_ratio` and ``make smoke-obs``.
"""

from .analytics import (
    ConvergenceLog,
    MattsonProfile,
    build_report,
    generation_stats,
    profile_trace,
    reconcile_with_stats,
)
from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    TraceEvent,
    event_from_dict,
    validate_event_dict,
)
from .logconfig import configure_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from .overhead import disabled_overhead_ratio
from .provenance import (
    build_manifest,
    config_hash,
    git_revision,
    manifest_path_for,
    write_manifest,
)
from .sinks import JSONLSink, ListSink, RingBufferSink, SamplingFilter, read_jsonl
from .spans import (
    SpanRecorder,
    current_recorder,
    install_recorder,
    profiled,
    span,
    uninstall_recorder,
    validate_chrome_trace,
)
from .status import (
    StatusPublisher,
    read_status,
    render_status,
    watch,
)
from .tracer import Tracer, registry_from_events, replay_counts

__all__ = [
    "ConvergenceLog",
    "MattsonProfile",
    "build_report",
    "generation_stats",
    "profile_trace",
    "reconcile_with_stats",
    "SpanRecorder",
    "current_recorder",
    "install_recorder",
    "profiled",
    "span",
    "uninstall_recorder",
    "validate_chrome_trace",
    "StatusPublisher",
    "read_status",
    "render_status",
    "watch",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "TraceEvent",
    "event_from_dict",
    "validate_event_dict",
    "configure_logging",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "disabled_overhead_ratio",
    "build_manifest",
    "config_hash",
    "git_revision",
    "manifest_path_for",
    "write_manifest",
    "JSONLSink",
    "ListSink",
    "RingBufferSink",
    "SamplingFilter",
    "read_jsonl",
    "Tracer",
    "registry_from_events",
    "replay_counts",
]
