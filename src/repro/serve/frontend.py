"""Sharded serving front-end: set-shard binning over streaming engines.

Accesses to different cache sets never interact, so a cache of
``num_sets`` sets splits *exactly* into ``shards`` independent
sub-caches of ``num_sets / shards`` sets each: shard = the high bits of
the set index, within-shard set = the low bits (which is just
``addr & (sets_per_shard - 1)`` — the natural set mapping of the
sub-cache).  Binning is stable, so each set sees its accesses in the
original order and the shard ensemble's miss counts are **bit-identical**
to one unsharded simulator over the same stream — the property the
serving conformance corpus and the soak test pin.

Each shard owns a persistent streaming engine — the columnar
``BatchSimulator.feed`` where the associativity has tables, the scalar
:class:`~repro.engine.scalar.ScalarStreamSimulator` otherwise — plus a
bounded queue of pending sub-batches.  :meth:`ingest` bins and enqueues
with **backpressure accounting**: when a shard's queue is full the
overflow is *shed* (counted per shard in ``shed_accesses``) instead of
growing without bound.  :meth:`process` is the lossless path: ingest +
drain per batch, so queues never overflow.

The front-end measures every access (no warmup window): a serving cache
is warm by definition, and shard-local warmup offsets would make miss
counts depend on the sharding — exactly what the bit-identity contract
forbids.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cache.stats import CacheStats
from ..core.plru import is_power_of_two
from ..engine.columnar import columnar_supported
from ..engine.scalar import ScalarStreamSimulator

__all__ = ["DEFAULT_MAX_QUEUE_BATCHES", "ShardResult", "ShardedFrontend"]

#: Pending sub-batches a shard queue holds before ingest starts shedding.
DEFAULT_MAX_QUEUE_BATCHES = 64


class ShardResult:
    """Snapshot of one shard: stats plus queue/shed accounting."""

    __slots__ = ("shard", "stats", "queued_batches", "shed_accesses")

    def __init__(self, shard: int, stats: CacheStats,
                 queued_batches: int, shed_accesses: int):
        self.shard = shard
        self.stats = stats
        self.queued_batches = queued_batches
        self.shed_accesses = shed_accesses

    def snapshot(self) -> dict:
        out = self.stats.snapshot()
        out["shard"] = self.shard
        out["queued_batches"] = self.queued_batches
        out["shed_accesses"] = self.shed_accesses
        return out


class _Shard:
    """One sub-cache: a streaming engine plus its bounded queue."""

    __slots__ = ("engine", "sim", "queue", "accesses", "misses", "shed")

    def __init__(self, engine: str, sim):
        self.engine = engine
        self.sim = sim
        self.queue: deque = deque()
        self.accesses = 0
        self.misses = 0
        self.shed = 0

    def simulate(self, batch) -> int:
        n = len(batch)
        if self.engine == "columnar":
            # collapse_runs is what keeps the lockstep engine fast on
            # Zipf-skewed serving streams (hot keys otherwise degenerate
            # their set's column into thousands of width-1 steps).
            missed = int(self.sim.feed(batch, collapse_runs=True)[0])
        else:
            missed = self.sim.feed(batch)
        self.accesses += n
        self.misses += missed
        return missed

    def cold_fills(self) -> int:
        if self.engine == "columnar":
            stream = self.sim._stream
            return int(stream["nfill"].sum()) if stream else 0
        return self.sim.cold_fills


class ShardedFrontend:
    """Bin batches by set-shard and feed persistent per-shard engines.

    ``engine`` selects the per-shard simulator: ``"auto"`` takes the
    columnar engine when the associativity has tables (k <= 16) and the
    scalar walk stream otherwise; ``"columnar"``/``"scalar"`` force
    one (columnar raises where unsupported).

    ``telemetry`` (a :class:`~repro.serve.telemetry.ServeTelemetry`)
    hooks the drain loop: each drained sub-batch is wall-clocked and fed
    to ``telemetry.record_batch``.  Telemetry never sees individual
    accesses and never changes what the engines simulate, so miss
    counts stay bit-identical with it on or off; with ``telemetry=None``
    (the default) the drain loop pays one ``is not None`` test per
    batch.  ``make smoke-serving`` holds the attached telemetry within
    5 % of that.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        entries: Sequence[int],
        shards: int = 1,
        engine: str = "auto",
        max_queue_batches: int = DEFAULT_MAX_QUEUE_BATCHES,
        telemetry=None,
    ):
        if not is_power_of_two(num_sets):
            raise ValueError(
                f"num_sets must be a power of two, got {num_sets}"
            )
        if not is_power_of_two(shards) or shards < 1:
            raise ValueError(
                f"shards must be a positive power of two, got {shards}"
            )
        if shards > num_sets:
            raise ValueError(
                f"cannot split {num_sets} sets into {shards} shards"
            )
        if engine not in ("auto", "columnar", "scalar"):
            raise ValueError(
                f"engine must be auto|columnar|scalar, got {engine!r}"
            )
        if max_queue_batches < 1:
            raise ValueError("max_queue_batches must be positive")
        if engine == "auto":
            engine = (
                "columnar" if columnar_supported(assoc) else "scalar"
            )
        self.num_sets = num_sets
        self.assoc = assoc
        self.entries = tuple(int(e) for e in entries)
        self.shards = shards
        self.engine = engine
        self.max_queue_batches = max_queue_batches
        self.sets_per_shard = num_sets // shards
        self._shard_shift = (self.sets_per_shard - 1).bit_length()
        self.telemetry = telemetry
        self._shards: List[_Shard] = [
            self._make_shard() for _ in range(shards)
        ]

    def _make_shard(self) -> _Shard:
        if self.engine == "columnar":
            from ..engine.columnar import BatchSimulator

            sim = BatchSimulator(
                self.sets_per_shard, self.assoc, [self.entries], warmup=0
            )
            sim.begin_stream()
            return _Shard("columnar", sim)
        return _Shard(
            "scalar",
            ScalarStreamSimulator(
                self.sets_per_shard, self.assoc, self.entries, warmup=0
            ),
        )

    # -- binning -------------------------------------------------------
    def _bin(self, batch) -> Dict[int, object]:
        """Stable per-shard sub-batches of ``batch`` (empty bins omitted)."""
        if self.shards == 1:
            return {0: batch} if len(batch) else {}
        out: Dict[int, object] = {}
        arr = np.ascontiguousarray(batch, dtype=np.int64)
        shard_of = (arr & (self.num_sets - 1)) >> self._shard_shift
        # Boolean selection is stable: each set's accesses stay in stream
        # order, which is all bit-identity needs.
        for s in range(self.shards):
            sub = arr[shard_of == s]
            if sub.size:
                out[s] = sub
        return out

    # -- ingest / drain / process --------------------------------------
    def ingest(self, batch) -> int:
        """Bin ``batch`` into the shard queues; returns accesses *shed*.

        A full shard queue (``max_queue_batches`` pending sub-batches)
        sheds the overflow sub-batch instead of queueing it — bounded
        memory under a stalled shard, degraded coverage accounted in
        ``shed_accesses`` (and as ``bypasses`` in the shard stats).
        """
        shed = 0
        for s, sub in self._bin(batch).items():
            shard = self._shards[s]
            if len(shard.queue) >= self.max_queue_batches:
                shard.shed += len(sub)
                shed += len(sub)
            else:
                shard.queue.append(sub)
        return shed

    def drain(self, max_batches: Optional[int] = None) -> int:
        """Simulate queued sub-batches; returns measured misses drained.

        ``max_batches`` bounds the work per call (round-robin across
        shards) so a caller can interleave draining with ingest.
        """
        done = 0
        misses = 0
        telemetry = self.telemetry
        progressed = True
        while progressed and (max_batches is None or done < max_batches):
            progressed = False
            for index, shard in enumerate(self._shards):
                if not shard.queue:
                    continue
                if telemetry is None:
                    misses += shard.simulate(shard.queue.popleft())
                else:
                    sub = shard.queue.popleft()
                    begin = perf_counter()
                    missed = shard.simulate(sub)
                    elapsed = perf_counter() - begin
                    telemetry.record_batch(
                        index, len(sub), elapsed, len(shard.queue)
                    )
                    misses += missed
                done += 1
                progressed = True
                if max_batches is not None and done >= max_batches:
                    break
        return misses

    def process(self, batch) -> int:
        """Lossless path: bin ``batch``, simulate everything, return its
        measured miss count.  Queues cannot overflow here."""
        for s, sub in self._bin(batch).items():
            self._shards[s].queue.append(sub)
        return self.drain()

    # -- accounting ----------------------------------------------------
    @property
    def queued_batches(self) -> int:
        return sum(len(s.queue) for s in self._shards)

    @property
    def shed_accesses(self) -> int:
        return sum(s.shed for s in self._shards)

    @property
    def accesses(self) -> int:
        return sum(s.accesses for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._shards)

    def _shard_stats(self, s: int) -> CacheStats:
        shard = self._shards[s]
        stats = CacheStats()
        stats.accesses = shard.accesses
        stats.misses = shard.misses
        stats.hits = shard.accesses - shard.misses
        stats.evictions = shard.misses - shard.cold_fills()
        # Shed accesses never reached the cache, so they appear in the
        # ShardResult (not here): the hits + misses == accesses and
        # bypasses <= misses invariants stay intact.
        return stats

    def shard_results(self) -> List[ShardResult]:
        """Per-shard stats snapshots (stats pass ``sanity_check``)."""
        return [
            ShardResult(
                s, self._shard_stats(s),
                len(self._shards[s].queue), self._shards[s].shed,
            )
            for s in range(self.shards)
        ]

    def totals(self) -> CacheStats:
        """Aggregate :class:`CacheStats` over every shard."""
        stats = CacheStats()
        for s in range(self.shards):
            part = self._shard_stats(s)
            stats.accesses += part.accesses
            stats.hits += part.hits
            stats.misses += part.misses
            stats.evictions += part.evictions
            stats.bypasses += part.bypasses
        return stats
