"""Cache-dynamics analytics: miss curves, engine counters, GA telemetry.

The observability layers of PRs 2/5 tell you *that* a run is healthy;
this package tells you *why* a result looks the way it does:

* :mod:`.profile` — a numpy-vectorized, single-pass Mattson profiler:
  full LRU miss curve MR(c), global and per-set stack-distance
  histograms, cold-miss/working-set stats.  Bit-consistent with the
  ``trace.analysis`` oracle, ≥20× faster at a million accesses.
* :mod:`.counters` — reconciles the columnar engine's
  :class:`~repro.engine.columnar.BatchCounters` with a scalar
  ``CacheStats`` run of the same stream.
* :mod:`.convergence` — per-generation GA fitness/diversity/throughput
  records, persisted as an atomically rewritten JSON log.
* :mod:`.report` — joins a profile and a convergence log into the
  ``repro obs analyze`` report (JSON + figure CSV).
"""

from .convergence import (
    CONVERGENCE_SCHEMA,
    ConvergenceLog,
    convergence_csv,
    generation_stats,
    read_convergence,
    render_convergence,
)
from .counters import reconcile_with_stats
from .profile import (
    DEFAULT_MAX_DISTANCE,
    DEFAULT_REUSE_MAX_DISTANCE,
    MattsonProfile,
    per_set_reuse_histogram_fast,
    profile_trace,
    stack_distances,
)
from .report import (
    REPORT_SCHEMA,
    build_report,
    miss_curve_csv,
    render_profile,
    render_report,
    write_report,
)

__all__ = [
    "CONVERGENCE_SCHEMA",
    "ConvergenceLog",
    "DEFAULT_MAX_DISTANCE",
    "DEFAULT_REUSE_MAX_DISTANCE",
    "MattsonProfile",
    "REPORT_SCHEMA",
    "build_report",
    "convergence_csv",
    "generation_stats",
    "miss_curve_csv",
    "per_set_reuse_histogram_fast",
    "profile_trace",
    "read_convergence",
    "reconcile_with_stats",
    "render_convergence",
    "render_profile",
    "render_report",
    "stack_distances",
    "write_report",
]
