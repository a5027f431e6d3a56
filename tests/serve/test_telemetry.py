"""Unit tests for :mod:`repro.serve.telemetry`.

ServeTelemetry ties two kinds of log-linear histogram (per-shard batch
latency, amortized per-access latency) to the front-end drain loop; these
tests drive it directly with synthetic batches so both surfaces
(snapshot, report_section) are checked without a full serving run.
"""

import pytest

from repro.obs.metrics import Histogram
from repro.serve.frontend import ShardedFrontend
from repro.serve.telemetry import ServeTelemetry


def feed(telem, batches, shard=0, accesses=1000, wall=1e-3):
    for _ in range(batches):
        telem.record_batch(shard, accesses, wall)


class TestRecordBatch:
    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ServeTelemetry(0)

    def test_empty_batch_is_noop(self):
        telem = ServeTelemetry(1)
        telem.record_batch(0, 0, 1e-3)
        assert telem.shard_batches == [0]
        assert telem.access_latency.count == 0

    def test_batch_feeds_every_surface(self):
        telem = ServeTelemetry(2)
        telem.record_batch(0, 600, 6e-4, queue_depth=3)
        telem.record_batch(1, 400, 4e-4, queue_depth=1)
        assert telem.shard_batches == [1, 1]
        assert telem.shard_queue_depth == [3, 1]
        # batch latency goes to the owning shard's histogram
        assert telem.batch_latency[0].count == 1
        assert telem.batch_latency[1].count == 1
        # amortized latency is weighted by batch size
        assert telem.access_latency.count == 1000
        assert telem.access_latency.sum / 1000 == pytest.approx(1e-6, rel=1e-3)

    def test_cross_shard_merge_bit_exact_vs_single_shard(self):
        # The same batch stream recorded through 4 shards and merged
        # must equal a single-shard recording, bucket for bucket.
        multi = ServeTelemetry(4)
        single = ServeTelemetry(1)
        walls = [(i % 17 + 1) * 3.7e-5 for i in range(200)]
        for i, wall in enumerate(walls):
            multi.record_batch(i % 4, 500, wall)
            single.record_batch(0, 500, wall)
        merged = multi.merged_batch_latency()
        alone = single.batch_latency[0]
        assert merged.counts == alone.counts
        assert merged.count == alone.count
        assert merged.min_value == alone.min_value
        assert merged.max_value == alone.max_value
        assert multi.access_latency.counts == single.access_latency.counts

    def test_percentiles_are_unchanged(self):
        # A fixed latency sequence over three shards, percentiles pinned
        # bit for bit: any change to the bucket math or the quantile rule
        # shows here.
        telem = ServeTelemetry(3)
        for i in range(300):
            wall = ((i * 37) % 101 + 1) * 1.3e-5 + (i % 5) * 2.2e-7
            telem.record_batch((i * 7) % 3, 64 + (i * 13) % 900, wall)
        p99 = 0.0013107190000000001
        assert [telem.batch_latency[s].percentiles() for s in range(3)] == [
            {"p50": 0.000655359, "p90": 0.0011796470000000002, "p99": p99,
             "p99_9": 0.001313},
            {"p50": 0.000671743, "p90": 0.001212415, "p99": p99,
             "p99_9": 0.00131344},
            {"p50": 0.000655359, "p90": 0.001212415, "p99": p99,
             "p99_9": 0.00131322},
        ]
        assert telem.merged_batch_latency().percentiles() == {
            "p50": 0.000671743, "p90": 0.001212415, "p99": p99,
            "p99_9": 0.00131344,
        }
        assert telem.access_latency.percentiles() == {
            "p50": 1.087e-06, "p90": 2.6870000000000003e-06,
            "p99": 7.423000000000001e-06, "p99_9": 1.4591e-05,
        }


class TestReadSurfaces:
    def test_snapshot_shape(self):
        telem = ServeTelemetry(2)
        feed(telem, 4, shard=0, accesses=500)
        feed(telem, 2, shard=1, accesses=500)
        snap = telem.snapshot()
        assert set(snap) == {"latency", "shards"}
        assert set(snap["latency"]) == {"p50", "p90", "p99", "p99_9"}
        assert [s["shard"] for s in snap["shards"]] == [0, 1]
        assert snap["shards"][0]["batches"] == 4
        assert snap["shards"][0]["p99"] > 0

    def test_report_section_shape(self):
        telem = ServeTelemetry(2)
        feed(telem, 3, shard=0, accesses=500)
        section = telem.report_section()
        assert set(section) == {
            "latency", "latency_histogram", "batch_latency", "shards",
        }
        assert section["latency_histogram"]["unit"] == 1e-9
        hist = Histogram.from_json(section["latency_histogram"])
        assert hist.count == 1500
        assert hist.percentiles() == section["latency"]
        assert section["batch_latency"]["p50"] > 0
        assert section["shards"][1]["batches"] == 0


class TestFrontendIntegration:
    def test_frontend_feeds_telemetry_per_batch(self):
        telem = ServeTelemetry(2)
        plain = ShardedFrontend(32, 4, (0, 1, 2, 3, 0), shards=2)
        wired = ShardedFrontend(32, 4, (0, 1, 2, 3, 0), shards=2,
                                telemetry=telem)
        batch = [i * 7 for i in range(4096)]
        want = plain.process(batch)
        got = wired.process(batch)
        assert got == want                      # bit-identical misses
        assert telem.shard_batches == [1, 1]    # one per shard sub-batch
        assert telem.access_latency.count == 4096
