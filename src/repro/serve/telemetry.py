"""Serving-path telemetry: batch and per-access latency histograms.

A :class:`ServeTelemetry` hangs off the :class:`~repro.serve.frontend.
ShardedFrontend` drain loop and is fed exactly once per engine *batch*
(thousands of accesses), never per access, which is how the layer fits
the ≤5 % overhead budget (``make smoke-serving`` measures it; disabled
means ``telemetry=None`` and the front-end pays one ``is not None``
test per drained batch).

Per batch it records:

* the shard's **batch latency** into a per-shard log-linear
  :class:`~repro.obs.metrics.Histogram` (exact counts, mergeable — the
  cross-shard merge is bit-identical to a single-shard recording, which
  the tests pin);
* the **amortized per-access cost** (batch wall / batch size) into a
  run-wide histogram, weighted by batch size.

``snapshot()`` is what ``run_serving`` publishes into
``run-status.json`` (``repro obs watch`` renders it as the latency and
shards rows); ``report_section()`` is the final JSON report's
``telemetry`` block.
"""

from __future__ import annotations

from typing import List

from ..obs.metrics import Histogram

__all__ = ["ServeTelemetry"]


class ServeTelemetry:
    """Per-shard batch latency and amortized per-access latency."""

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.batch_latency: List[Histogram] = [
            Histogram() for _ in range(shards)
        ]
        self.access_latency = Histogram()
        self.shard_batches = [0] * shards
        self.shard_queue_depth = [0] * shards

    # ------------------------------------------------------------------
    # Hot-side entry points (once per batch, never per access).
    # ------------------------------------------------------------------
    def record_batch(self, shard: int, accesses: int, wall_sec: float,
                     queue_depth: int = 0) -> None:
        """Fold one drained engine batch into both histograms."""
        if accesses <= 0:
            return
        self.shard_batches[shard] += 1
        self.shard_queue_depth[shard] = queue_depth
        self.batch_latency[shard].observe(wall_sec)
        self.access_latency.observe(wall_sec / accesses, weight=accesses)

    def record_shed(self, shed: int) -> None:
        """Does nothing: a shed batch has no latency to record.

        Nothing in ``repro`` calls it.  It stays only because
        ``perfbench/layers.py`` wraps it by name; it goes together with
        the front-end's shed path.
        """

    def finalize(self) -> None:
        """Does nothing: the histograms need no end-of-run flush.

        Nothing in ``repro`` calls it.  It stays only because
        ``perfbench/layers.py`` wraps it by name.
        """

    def publish(self, registry) -> None:
        """Does nothing: no serving run keeps a metrics registry.

        Nothing in ``repro`` calls it.  It stays only because
        ``perfbench/layers.py`` wraps it by name.
        """

    # ------------------------------------------------------------------
    # Read-side surfaces.
    # ------------------------------------------------------------------
    def merged_batch_latency(self) -> Histogram:
        """All shards' batch-latency histograms merged (exact counts)."""
        merged = Histogram()
        for hist in self.batch_latency:
            merged.merge(hist)
        return merged

    def snapshot(self) -> dict:
        """The ``serving`` section of ``run-status.json``."""
        return {
            "latency": self.access_latency.percentiles(),
            "shards": [
                {
                    "shard": s,
                    "batches": self.shard_batches[s],
                    "p99": self.batch_latency[s].quantile(0.99),
                    "queue_depth": self.shard_queue_depth[s],
                }
                for s in range(self.shards)
            ],
        }

    def report_section(self) -> dict:
        """The final JSON report's ``telemetry`` block."""
        merged = self.merged_batch_latency()
        return {
            "latency": self.access_latency.percentiles(),
            "latency_histogram": self.access_latency.as_json(),
            "batch_latency": merged.percentiles(),
            "shards": [
                {
                    "shard": s,
                    "batches": self.shard_batches[s],
                    "latency": self.batch_latency[s].percentiles(),
                }
                for s in range(self.shards)
            ],
        }
