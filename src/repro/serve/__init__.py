"""Streaming Zipf key-value serving scenario.

:mod:`repro.serve.workload` generates bounded-memory, deterministic,
chunk-invariant Zipf/churn/flash-crowd access streams;
:mod:`repro.serve.frontend` shards them by set index into persistent
streaming simulators (columnar up to 16 ways, scalar above);
:mod:`repro.serve.service` wires the two to spans, the live status
file, the latency histograms of :mod:`repro.serve.telemetry` and the
JSON report, and backs the ``repro serve`` CLI.
"""

from .frontend import ShardedFrontend, ShardResult
from .service import ServingReport, run_serving
from .telemetry import ServeTelemetry
from .workload import (
    GEN_BLOCK,
    FlashPhase,
    ServingSpec,
    ServingStream,
    auto_flash_phases,
    zipf_cdf,
)

__all__ = [
    "GEN_BLOCK",
    "FlashPhase",
    "ServeTelemetry",
    "ServingReport",
    "ServingSpec",
    "ServingStream",
    "ShardResult",
    "ShardedFrontend",
    "auto_flash_phases",
    "run_serving",
    "zipf_cdf",
]
