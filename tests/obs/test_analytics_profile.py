"""Vectorized Mattson profiler: oracle equality and miss curves.

The binding contract is bit-identity with the ``repro.trace.analysis``
walks — every histogram the profiler exposes must equal what the
OrderedDict oracle produces on the same stream.
"""

import random

import pytest

from repro.obs.analytics import profile_trace
from repro.obs.analytics.profile import (
    per_set_reuse_histogram_fast,
    stack_distances,
)
from repro.trace import (
    Trace,
    per_set_reuse_histogram,
    stack_distance_histogram,
)


def mixed_stream(n, footprint, seed=0):
    rng = random.Random(seed)
    hot = max(1, footprint // 4)
    return [
        rng.randrange(hot) if rng.random() < 0.6 else rng.randrange(footprint)
        for _ in range(n)
    ]


class TestOracleEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_global_histogram_matches(self, seed):
        addresses = mixed_stream(3_000, 400, seed)
        profile = profile_trace(addresses, max_distance=64)
        oracle = stack_distance_histogram(
            Trace(addresses), max_distance=64
        )
        assert profile.stack_distance_histogram() == oracle

    def test_per_set_surfaces_match(self):
        addresses = mixed_stream(2_500, 300, seed=7)
        num_sets = 8
        profile = profile_trace(
            addresses, num_sets=num_sets, max_distance=32
        )
        assert profile.per_set_reuse_histogram() == (
            per_set_reuse_histogram(Trace(addresses), num_sets)
        )
        mask = num_sets - 1
        for s in range(num_sets):
            sub = [a for a in addresses if a & mask == s]
            assert profile.per_set_stack_histogram(s) == (
                stack_distance_histogram(Trace(sub), max_distance=32)
            )
            assert profile.set_accesses[s] == len(sub)
            assert profile.set_cold[s] == len(set(sub))

    def test_stack_distances_match_oracle_walk(self):
        addresses = mixed_stream(1_000, 150, seed=3)
        dist = stack_distances(addresses)
        # Independent reference: distance = distinct addresses since the
        # previous occurrence.
        seen_at = {}
        for i, a in enumerate(addresses):
            if a not in seen_at:
                assert dist[i] == -1
            else:
                window = set(addresses[seen_at[a] + 1:i])
                window.discard(a)
                assert dist[i] == len(window)
            seen_at[a] = i

    def test_reuse_fast_helper_matches(self):
        addresses = mixed_stream(2_000, 256, seed=9)
        assert per_set_reuse_histogram_fast(addresses, 4) == (
            per_set_reuse_histogram(Trace(addresses), 4)
        )

    def test_accepts_trace_object(self):
        addresses = mixed_stream(500, 64, seed=4)
        assert (
            profile_trace(Trace(addresses)).stack_distance_histogram()
            == profile_trace(addresses).stack_distance_histogram()
        )


class TestMissCurve:
    def test_loop_stream_knee(self):
        ws = 16
        profile = profile_trace(list(range(ws)) * 10)
        # Below the working set every reuse misses; at ws everything hits.
        assert profile.lru_misses(ws) == ws
        assert profile.lru_misses(ws - 1) == 10 * ws
        assert profile.lru_misses(0) == profile.accesses

    def test_curve_monotone_and_anchored(self):
        profile = profile_trace(mixed_stream(2_000, 300, seed=5))
        counts = profile.miss_counts()
        assert counts[0] == profile.accesses
        assert counts[-1] == profile.cold_misses
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_points_cover_endpoints(self):
        profile = profile_trace(mixed_stream(5_000, 2_000, seed=6))
        points = profile.miss_curve_points(max_points=20)
        caps = [c for c, _, _ in points]
        assert caps[0] == 0
        assert caps[-1] == profile.footprint
        assert len(caps) <= profile.footprint + 1
        rates = [r for _, _, r in points]
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_rejects_negative_capacity(self):
        profile = profile_trace([1, 2, 3])
        with pytest.raises(ValueError):
            profile.lru_misses(-1)


class TestEdgeCasesAndValidation:
    def test_empty_stream(self):
        profile = profile_trace([], num_sets=4)
        assert profile.accesses == 0
        assert profile.footprint == 0
        assert profile.stack_distance_histogram() == {}
        assert profile.miss_curve() == [0.0]
        assert sum(profile.per_set_reuse_histogram()) == 0

    def test_single_address(self):
        profile = profile_trace([42], num_sets=2)
        assert profile.stack_distance_histogram() == {-1: 1}
        stats = profile.working_set_stats()
        assert stats["cold_fraction"] == 1.0
        assert stats["mean_stack_distance"] is None

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError, match="power of two"):
            profile_trace([1, 2], num_sets=3)

    def test_rejects_bad_distances(self):
        with pytest.raises(ValueError):
            profile_trace([1], max_distance=-1)
        with pytest.raises(ValueError):
            profile_trace([1], reuse_max_distance=0)

    def test_to_json_schema(self):
        import json

        profile = profile_trace(mixed_stream(400, 64, seed=8), num_sets=4)
        payload = profile.to_json()
        assert payload["schema"] == "repro-analytics-profile/1"
        assert payload["num_sets"] == 4
        assert "-1" in payload["stack_distance_histogram"]
        json.dumps(payload)  # JSON-safe end to end


class TestColumnarTraceInput:
    def test_rejects_layouts_without_every_access(self):
        """A collapsed trace keeps one entry per run and a segmented one
        keeps indices local to each stream: neither scatters back."""
        from repro.engine.columnar import ColumnarTrace

        addresses = mixed_stream(1_500, 200, seed=13)
        for trace in (ColumnarTrace(addresses, 8, collapse_runs=True),
                      ColumnarTrace([addresses, addresses[:700]], 8)):
            with pytest.raises(ValueError, match="uncollapsed single"):
                profile_trace(trace)

    def test_columnar_trace_infers_sets_and_matches(self):
        from repro.engine.columnar import ColumnarTrace

        addresses = mixed_stream(1_500, 200, seed=13)
        trace = ColumnarTrace(addresses, num_sets=8)
        from_columnar = profile_trace(trace)
        from_raw = profile_trace(addresses, num_sets=8)
        assert from_columnar.num_sets == 8
        assert (
            from_columnar.stack_distance_histogram()
            == from_raw.stack_distance_histogram()
        )
        assert (
            from_columnar.per_set_reuse_histogram()
            == from_raw.per_set_reuse_histogram()
        )
