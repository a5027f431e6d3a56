"""Metrics registry: instruments, exporters, round-trips.

The one Histogram, in both bucket layouts: fixed ``le`` bounds (the
registry's) and log-linear (``TestHdr*``: indexing invariants, bounded
quantization error, lossless cross-shard merge, JSON round-trip).
"""

import hashlib
import json
import math
import random

import pytest

from repro.obs import MetricsRegistry, parse_prometheus
from repro.obs.events import TraceEvent
from repro.obs.metrics import DEFAULT_QUANTILES, Histogram
from repro.obs.tracer import registry_from_events


class TestInstruments:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("jobs_total", "jobs")
        b = registry.counter("jobs_total")
        assert a is b
        a.inc()
        a.inc(4)
        assert b.value == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        hits = registry.counter("events_total", labels={"kind": "hit"})
        misses = registry.counter("events_total", labels={"kind": "miss"})
        assert hits is not misses
        hits.inc(2)
        assert misses.value == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.5)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == 4.0

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("9starts-with-digit")

    def test_histogram_buckets(self):
        hist = MetricsRegistry().histogram("h", bounds=[1, 2, 4])
        for value in (0, 1, 2, 3, 10):
            hist.observe(value)
        # buckets: <=1 gets 0 and 1; <=2 gets 2; <=4 gets 3; +Inf gets 10.
        assert hist.counts == {0: 2, 1: 1, 2: 1, 3: 1}
        assert hist.count == 5
        assert hist.sum == 16

    def test_histogram_rejects_bad_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("empty", bounds=[])
        with pytest.raises(ValueError):
            registry.histogram("dupes", bounds=[1, 1])

    def test_histogram_weighted_observe(self):
        hist = MetricsRegistry().histogram("h", bounds=[1, 2, 4])
        hist.observe(1, weight=3)
        hist.observe(3, weight=2)
        assert hist.counts == {0: 3, 2: 2}
        assert hist.count == 5
        assert hist.sum == 9
        # weight=0 is a no-op, not an error (empty bins flush cleanly).
        hist.observe(100, weight=0)
        assert hist.count == 5

    def test_histogram_rejects_nan_value(self):
        hist = MetricsRegistry().histogram("h", bounds=[1])
        with pytest.raises(ValueError, match="NaN"):
            hist.observe(math.nan)

    @pytest.mark.parametrize("weight", [-1, -0.5, math.nan])
    def test_histogram_rejects_bad_weight(self, weight):
        hist = MetricsRegistry().histogram("h", bounds=[1])
        with pytest.raises(ValueError):
            hist.observe(1, weight=weight)

    def test_merge_validates_bounds(self):
        hist = MetricsRegistry().histogram("h", bounds=[1, 2])
        other = Histogram([1, 2])
        other.observe(0.5)
        hist.merge(other)
        assert hist.count == 1
        with pytest.raises(ValueError, match="bounds"):
            hist.merge(Histogram([1, 3]))

    def test_from_json_rejects_index_past_overflow(self):
        payload = Histogram([1, 2]).as_json()
        payload["counts"] = {"3": 1}  # buckets are 0, 1 and 2 (+Inf)
        with pytest.raises(ValueError, match="bucket index"):
            Histogram.from_json(payload)


class TestHistogramQuantile:
    def test_nearest_rank_takes_the_bucket_bound(self):
        hist = MetricsRegistry().histogram("h", bounds=[1, 10, 100])
        for v in (5, 3, 9, 1, 7, 50):
            hist.observe(v)
        assert hist.quantile(0.0) == 1       # the observed min, exactly
        assert hist.quantile(1 / 6) == 1     # rank 1: the <= 1 bucket
        assert hist.quantile(0.5) == 10      # rank 3: the <= 10 bucket
        assert hist.quantile(1.0) == 50      # <= 100, clamped to the max

    def test_overflow_bucket_clamps_to_observed_max(self):
        hist = MetricsRegistry().histogram("h", bounds=[1, 2])
        hist.observe(100)
        assert hist.quantile(0.99) == 100

    def test_first_bucket_lower_bound(self):
        hist = MetricsRegistry().histogram("h", bounds=[4])
        hist.observe(2, weight=2)
        # Nothing below the first bound is assumed: the bucket's bound 4,
        # clamped to the observed max.
        assert hist.quantile(0.5) == pytest.approx(2.0)

    def test_negative_values_bin_in_fixed_layout(self):
        hist = Histogram(range(-3, 4))
        for v in (-5, -3, -1, 0, 2):
            hist.observe(v)
        assert hist.counts == {0: 2, 2: 1, 3: 1, 5: 1}
        assert hist.quantile(0.4) == -3

    def test_empty_and_range_checks(self):
        hist = MetricsRegistry().histogram("h", bounds=[1])
        assert hist.quantile(0.5) is None
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(-0.1)


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "jobs run").inc(3)
        registry.gauge("repro_wall_seconds").set(1.5)
        hist = registry.histogram("repro_job_seconds", bounds=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        registry.counter(
            "repro_events_total", labels={"kind": "hit"}
        ).inc(7)
        return registry

    def test_prometheus_round_trip(self):
        registry = self._populated()
        text = registry.to_prometheus()
        assert "# TYPE repro_jobs_total counter" in text
        assert "# HELP repro_jobs_total jobs run" in text
        parsed = parse_prometheus(text)
        assert parsed[("repro_jobs_total", ())] == 3
        assert parsed[("repro_wall_seconds", ())] == 1.5
        assert parsed[("repro_events_total", (("kind", "hit"),))] == 7
        # Histogram buckets are cumulative in the exposition format.
        assert parsed[("repro_job_seconds_bucket", (("le", "0.1"),))] == 1
        assert parsed[("repro_job_seconds_bucket", (("le", "1"),))] == 2
        assert parsed[("repro_job_seconds_bucket", (("le", "+Inf"),))] == 3
        assert parsed[("repro_job_seconds_count", ())] == 3
        assert parsed[("repro_job_seconds_sum", ())] == pytest.approx(5.55)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus\n")

    def test_parse_handles_special_values(self):
        parsed = parse_prometheus("a 1\nb +Inf\nc NaN\n")
        assert parsed[("a", ())] == 1.0
        assert math.isinf(parsed[("b", ())])
        assert math.isnan(parsed[("c", ())])

    def test_json_export(self):
        registry = self._populated()
        out = registry.to_json()
        assert out["repro_jobs_total"]["type"] == "counter"
        assert out["repro_jobs_total"]["series"][0]["value"] == 3
        hist = out["repro_job_seconds"]["series"][0]["value"]
        assert hist == {
            "bounds": [0.1, 1.0], "counts": {"0": 1, "1": 1, "2": 1},
            "count": 3, "sum": 5.55, "min": 0.05, "max": 5.0,
        }
        series = out["repro_events_total"]["series"][0]
        assert series["labels"] == {"kind": "hit"}

    def test_namespace_prefixes_names(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("jobs").inc()
        assert ("repro_jobs", ()) in parse_prometheus(
            registry.to_prometheus()
        )


class TestThreadSafety:
    """Concurrent writers must not lose updates (inc is read-modify-write)."""

    THREADS = 8
    PER_THREAD = 10_000

    def _hammer(self, work):
        import threading

        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait(timeout=10)
            for _ in range(self.PER_THREAD):
                work()

        threads = [threading.Thread(target=run) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_concurrent_total")
        self._hammer(counter.inc)
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_concurrent_gauge_incs_are_exact(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_concurrent_gauge")
        self._hammer(lambda: gauge.inc(0.5))
        assert gauge.value == pytest.approx(
            0.5 * self.THREADS * self.PER_THREAD
        )

    def test_concurrent_histogram_observes_are_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_concurrent_hist", (1.0, 2.0))
        self._hammer(lambda: hist.observe(1.5))
        total = self.THREADS * self.PER_THREAD
        assert hist.count == total
        assert hist.sum == pytest.approx(1.5 * total)

    def test_concurrent_get_or_create_returns_one_instrument(self):
        import threading

        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait(timeout=10)
            counter = registry.counter("repro_shared_total")
            counter.inc()
            seen.append(counter)

        threads = [threading.Thread(target=run) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1
        assert registry.counter("repro_shared_total").value == self.THREADS


class TestPinnedOutputs:
    """The tracer registry's Prometheus text, byte for byte."""

    def test_registry_histograms_prometheus_text_is_unchanged(self):
        # The tracer's two histograms and its event counters, fed through
        # registry_from_events, with values below, on and past the bounds.
        events = [TraceEvent("insertion", i, pos_after=p)
                  for i, p in enumerate([0, 3, 3, 15, 31, 40, -2, 7])]
        events += [
            TraceEvent("promotion", 100 + i, pos_before=b, pos_after=a)
            for i, (b, a) in enumerate([(5, 0), (0, 5), (31, 0), (0, 31),
                                        (40, 0), (0, 40), (2, 2), (9, 1)])
        ]
        text = registry_from_events(events).to_prometheus()
        assert 'repro_promotion_distance_bucket{le="-31"} 2' in text
        # SHA-256 of the whole text, pinned: any change to the bucketing
        # or the exposition shows here.
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a471661ae778ae3d6329935d2762cd7677be2089633b35612f6ffa65a57902c9"
        ), text


class TestHdrIndexing:
    def test_small_values_are_exact(self):
        h = Histogram(unit=1.0, sub_bits=5)
        for units in range(32):
            assert h._index_of(units) == units
            assert h._highest(units) == units

    def test_index_is_monotone_and_covers(self):
        h = Histogram(unit=1.0, sub_bits=3)
        prev = -1
        for units in range(4096):
            index = h._index_of(units)
            assert index >= prev
            # The bucket holds units, and the one below it does not.
            assert units <= h._highest(index)
            assert index == 0 or h._highest(index - 1) < units
            prev = index

    def test_relative_error_bound(self):
        # Below 2**sub_bits buckets are exact-to-the-unit; the relative
        # bound kicks in for the log-bucketed octaves above.
        h = Histogram(unit=1.0, sub_bits=5)
        for units in (32, 100, 1023, 65537, 10**9):
            index = h._index_of(units)
            lo, hi = h._highest(index - 1) + 1, h._highest(index) + 1
            assert lo <= units < hi
            assert (hi - lo) / lo <= 2.0 ** -h.sub_bits + 1e-12


class TestHdrRecording:
    def test_rejects_bad_values(self):
        h = Histogram()
        with pytest.raises(ValueError, match="NaN"):
            h.observe(float("nan"))
        with pytest.raises(ValueError, match=">= 0"):
            h.observe(-1e-9)
        with pytest.raises(ValueError, match="weight"):
            h.observe(1e-6, weight=-1)

    def test_zero_weight_is_noop(self):
        h = Histogram()
        h.observe(1e-3, weight=0)
        assert h.count == 0
        assert h.quantile(0.5) is None
        assert h.min_value is None

    def test_weighted_record(self):
        h = Histogram(unit=1.0, sub_bits=5)
        h.observe(10, weight=1000)
        assert h.count == 1000
        assert h.sum == pytest.approx(10_000)
        assert h.quantile(0.5) == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="unit"):
            Histogram(unit=0)
        with pytest.raises(ValueError, match="sub_bits"):
            Histogram(sub_bits=0)
        with pytest.raises(ValueError, match="sub_bits"):
            Histogram(sub_bits=17)


class TestHdrQuantiles:
    def test_extremes_are_exact(self):
        h = Histogram(unit=1e-9)
        values = [3e-6, 1e-4, 7.5e-3, 42e-6]
        for v in values:
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(min(values))
        assert h.quantile(1.0) == pytest.approx(max(values))

    def test_quantile_error_within_bound(self):
        rng = random.Random(7)
        h = Histogram(unit=1e-9, sub_bits=5)
        samples = sorted(rng.lognormvariate(-9, 1.0) for _ in range(5000))
        for v in samples:
            h.observe(v)
        for q in DEFAULT_QUANTILES:
            exact = samples[min(len(samples) - 1,
                                max(0, math.ceil(q * len(samples)) - 1))]
            got = h.quantile(q)
            assert abs(got - exact) / exact <= 2.0 ** -h.sub_bits + 1e-9

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram().quantile(1.5)

    def test_percentile_labels(self):
        h = Histogram(unit=1.0)
        h.observe(5)
        pcts = h.percentiles()
        assert set(pcts) == {"p50", "p90", "p99", "p99_9"}
        assert pcts["p50"] == 5


class TestHdrMerge:
    def test_cross_shard_merge_is_bit_exact(self):
        # Recording everything into one histogram vs sharding the same
        # stream across two and merging must give identical raw counts.
        rng = random.Random(11)
        single = Histogram(unit=1e-9)
        shards = [Histogram(unit=1e-9) for _ in range(2)]
        for i in range(4000):
            v = rng.expovariate(1e4)
            single.observe(v)
            shards[i % 2].observe(v)
        merged = Histogram(unit=1e-9)
        for shard in shards:
            merged.merge(shard)
        assert merged.counts == single.counts
        assert merged.count == single.count
        assert merged.sum == pytest.approx(single.sum)
        assert merged.min_value == single.min_value
        assert merged.max_value == single.max_value
        for q in DEFAULT_QUANTILES:
            assert merged.quantile(q) == single.quantile(q)

    def test_layout_mismatch_raises(self):
        a = Histogram(unit=1e-9, sub_bits=5)
        with pytest.raises(ValueError, match="unit"):
            a.merge(Histogram(unit=1e-6, sub_bits=5))
        with pytest.raises(ValueError, match="sub_bits"):
            a.merge(Histogram(unit=1e-9, sub_bits=6))
        with pytest.raises(ValueError, match="bounds"):
            a.merge(Histogram([1e-9]))

    def test_merge_rejects_negative_index(self):
        payload = Histogram().as_json()
        payload["counts"] = {"-3": 1}
        with pytest.raises(ValueError, match="bucket index"):
            Histogram.from_json(payload)

    def test_merge_rejects_negative_count(self):
        payload = Histogram().as_json()
        payload["counts"] = {"3": -1}
        with pytest.raises(ValueError, match="negative count"):
            Histogram.from_json(payload)

    def test_serde_round_trip(self):
        self.assert_round_trips(Histogram(unit=1e-9))

    def test_serde_round_trip_fixed_layout(self):
        self.assert_round_trips(Histogram([0.001, 1.0]))

    @staticmethod
    def assert_round_trips(h):
        for v in (1e-6, 3e-5, 2e-3):
            h.observe(v, weight=7)
        clone = Histogram.from_json(json.loads(json.dumps(h.as_json())))
        assert clone.layout == h.layout
        assert clone.counts == h.counts
        assert clone.count == h.count
        assert clone.sum == h.sum
        assert clone.min_value == h.min_value
        assert clone.max_value == h.max_value
        assert clone.percentiles() == h.percentiles()

    def test_from_json_rejects_missing_layout(self):
        with pytest.raises(ValueError, match="layout"):
            Histogram.from_json({"counts": {}, "sum": 0.0})
