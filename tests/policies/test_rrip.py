"""Tests for SRRIP/BRRIP/DRRIP (Jaleel et al. semantics)."""

import random

import pytest

from repro.cache import SetAssociativeCache
from repro.policies import (
    BRRIPPolicy,
    DRRIPPolicy,
    SRRIPPolicy,
    TrueLRUPolicy,
)
from repro.policies.base import AccessContext
from repro.policies.rrip import BRRIP_LONG_INTERVAL


def run(policy, addresses, num_sets=1, assoc=4):
    cache = SetAssociativeCache(num_sets, assoc, policy, block_size=1)
    for a in addresses:
        cache.access(a)
    return cache


class TestSRRIP:
    def test_insert_rrpv_is_long(self):
        policy = SRRIPPolicy(1, 4)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        cache.access(0)
        way = cache._way_of[0][0]
        assert policy.rrpv_of(0, way) == 2  # max(3) - 1

    def test_hit_promotes_to_zero(self):
        policy = SRRIPPolicy(1, 4)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        cache.access(0)
        cache.access(0)
        way = cache._way_of[0][0]
        assert policy.rrpv_of(0, way) == 0

    def test_victim_prefers_distant(self):
        policy = SRRIPPolicy(1, 4)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        for a in range(4):
            cache.access(a)
        cache.access(0)  # 0 now has RRPV 0, others RRPV 2
        cache.access(4)  # aging makes 1,2,3 distant; victim among them
        assert cache.contains(0)

    def test_aging_terminates(self):
        policy = SRRIPPolicy(1, 4)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        ctx = AccessContext()
        for a in range(4):
            cache.access(a)
            cache.access(a)  # all RRPVs 0
        victim = policy.victim(0, ctx)
        assert 0 <= victim < 4
        # Aging mutated the set: at least one block now has max RRPV.
        assert any(policy.rrpv_of(0, w) == 3 for w in range(4))

    def test_scan_resistance_vs_lru(self):
        """A one-shot scan should not flush SRRIP's hot set like LRU's."""
        rng = random.Random(2)
        hot = list(range(12))
        trace = []
        for burst in range(300):
            trace.extend(rng.choice(hot) for _ in range(40))
            trace.extend(range(1000 + burst * 8, 1008 + burst * 8))
        srrip = run(SRRIPPolicy(1, 16), trace, assoc=16)
        lru = run(TrueLRUPolicy(1, 16), trace, assoc=16)
        assert srrip.stats.hits > lru.stats.hits


class TestFrequencyPriority:
    def test_fp_steps_one_class_per_hit(self):
        policy = SRRIPPolicy(1, 4, hit_priority=False)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        cache.access(0)  # insert at 2
        way = cache._way_of[0][0]
        cache.access(0)
        assert policy.rrpv_of(0, way) == 1
        cache.access(0)
        assert policy.rrpv_of(0, way) == 0
        cache.access(0)
        assert policy.rrpv_of(0, way) == 0  # floors at 0

    def test_fp_resists_single_touch_pollution(self):
        """FP protects frequently-hit blocks better when single-reuse
        blocks would earn full protection under HP."""
        rng = random.Random(6)
        hot = list(range(8))
        trace = []
        addr = 1000
        for _ in range(1500):
            trace.extend(rng.choice(hot) for _ in range(6))
            # Polluters touched exactly twice: HP promotes them to 0.
            trace.extend([addr, addr])
            addr += 1
        fp = run(SRRIPPolicy(1, 16, hit_priority=False), trace, assoc=16)
        hp = run(SRRIPPolicy(1, 16, hit_priority=True), trace, assoc=16)
        assert fp.stats.hits >= hp.stats.hits


class TestBRRIP:
    def test_mostly_distant_insertion(self):
        policy = BRRIPPolicy(1, 4)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        distant = 0
        for a in range(BRRIP_LONG_INTERVAL):
            cache.access(1000 + a)
            way = cache._way_of[0].get(1000 + a)
            if way is not None and policy.rrpv_of(0, way) == 3:
                distant += 1
        assert distant == BRRIP_LONG_INTERVAL - 1  # one long insertion per 32

    def test_thrash_resistance(self):
        loop = list(range(6)) * 400  # 6 blocks in a 4-way set
        brrip = run(BRRIPPolicy(1, 4), loop)
        lru = run(TrueLRUPolicy(1, 4), loop)
        assert lru.stats.hits == 0
        assert brrip.stats.hits > len(loop) // 3


class TestDRRIP:
    def test_duels_toward_brrip_on_thrash(self):
        policy = DRRIPPolicy(64, 16)
        loop = [(i * 3) % 1400 for i in range(50_000)]
        run(policy, loop, num_sets=64, assoc=16)
        assert policy.selector.selected() == 1  # BRRIP

    def test_duels_toward_srrip_on_friendly(self):
        """LRU-friendly reuse band (stack distances below capacity): BRRIP's
        distant insertion evicts blocks before their reuse, so the duel must
        pick SRRIP."""
        from repro.trace import stack_distance

        trace = stack_distance(
            list(range(200, 700, 50)), [1.0] * 10, 30_000,
            cold_fraction=0.3, seed=5,
        ).address_list()
        policy = DRRIPPolicy(64, 16)
        run(policy, trace, num_sets=64, assoc=16)
        assert policy.selector.selected() == 0  # SRRIP

    def test_beats_lru_on_thrash(self):
        loop = [(i * 3) % 1400 for i in range(50_000)]
        drrip = run(DRRIPPolicy(64, 16), loop, num_sets=64, assoc=16)
        lru = run(TrueLRUPolicy(64, 16), loop, num_sets=64, assoc=16)
        assert drrip.stats.misses < lru.stats.misses

    def test_state_bits_match_paper(self):
        # 2 bits per block -> 32 bits per 16-way set (twice DGIPPR's 15).
        policy = DRRIPPolicy(4096, 16)
        assert policy.state_bits_per_set() == 32
        assert policy.global_state_bits() == 10

    def test_rrpv_width_is_one_to_eight_bits(self):
        # The whole-trace loop keeps a set's RRPVs in a bytearray.
        assert DRRIPPolicy(4, 4, rrpv_bits=8).max_rrpv == 255
        with pytest.raises(ValueError, match="at most 8 bits"):
            DRRIPPolicy(4, 4, rrpv_bits=9)
