"""The per-access invariant battery: clean states pass, corruption is named."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.verify.conformance import build_policy
from repro.verify.invariants import (
    FillCountInvariant,
    PositionBijectivityInvariant,
    PselBoundsInvariant,
    StatsConsistencyInvariant,
    TagUniquenessInvariant,
    check_invariants,
    default_invariants,
)


def build_cache(policy_name="lru", num_sets=4, assoc=4):
    # build_policy supplies geometry-appropriate IPVs for the vector
    # policies (the published vectors are 16-way only).
    policy = build_policy(policy_name, num_sets, assoc)
    return SetAssociativeCache(num_sets, assoc, policy, block_size=1)


def warm(cache, n=64):
    for i in range(n):
        cache.access(i * 5 % 32)
    return cache


class TestCleanStatesPass:
    @pytest.mark.parametrize(
        "policy", ["lru", "plru", "gippr", "dgippr", "drrip", "fifo"]
    )
    def test_default_battery_clean(self, policy):
        cache = warm(build_cache(policy))
        assert check_invariants(cache, default_invariants()) is None

    def test_cold_cache_clean(self):
        cache = build_cache()
        assert check_invariants(cache, default_invariants()) is None


class TestTagUniqueness:
    def test_duplicate_tag_detected(self):
        cache = warm(build_cache())
        tags = cache._tags[0]
        tags[1] = tags[0]
        violation = TagUniquenessInvariant().check(cache)
        assert violation is not None and "duplicate" in violation

    def test_stale_reverse_map_detected(self):
        cache = warm(build_cache())
        way_of = cache._way_of[0]
        tag = next(iter(way_of))
        way_of[tag] = (way_of[tag] + 1) % cache.assoc
        assert TagUniquenessInvariant().check(cache) is not None


class TestFillCount:
    def test_corrupted_counter_detected(self):
        cache = warm(build_cache())
        cache._fill_count[0] -= 1
        violation = FillCountInvariant().check(cache)
        assert violation is not None and "fill_count" in violation


class TestPositionBijectivity:
    def test_plru_state_corruption_detected(self):
        cache = warm(build_cache("plru"))
        # position_of decodes from packed per-set plru bits; positions stay
        # a permutation for *every* bit pattern, so corrupt the decoder via
        # a monkeypatched position_of instead.
        cache.policy.position_of = lambda s, w: 0
        violation = PositionBijectivityInvariant().check(cache)
        assert violation is not None and "permutation" in violation

    def test_policies_without_positions_are_skipped(self):
        cache = warm(build_cache("random"))
        assert PositionBijectivityInvariant().check(cache) is None


class TestPselBounds:
    def test_out_of_rails_counter_detected(self):
        cache = warm(build_cache("dgippr"))
        counters = list(cache.policy.selector.counters.values())
        assert counters  # DGIPPR has a selector with counters
        counters[0].value = counters[0].hi + 1
        violation = PselBoundsInvariant().check(cache)
        assert violation is not None and "outside" in violation

    def test_policies_without_selector_are_skipped(self):
        cache = warm(build_cache("lru"))
        assert PselBoundsInvariant().check(cache) is None


class TestStatsConsistency:
    def test_hits_plus_misses_mismatch_detected(self):
        cache = warm(build_cache())
        cache.stats.hits += 1
        assert StatsConsistencyInvariant().check(cache) is not None

    def test_eviction_overflow_detected(self):
        cache = warm(build_cache())
        cache.stats.evictions = cache.stats.misses + 1
        assert StatsConsistencyInvariant().check(cache) is not None


class TestCheckInvariants:
    def test_violation_is_prefixed_with_invariant_name(self):
        cache = warm(build_cache())
        cache._fill_count[0] += 1
        violation = check_invariants(cache, default_invariants())
        assert violation is not None and violation.startswith("fill-count:")
