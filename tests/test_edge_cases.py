"""Edge-case tests across modules: branches the mainline tests skip."""

import math
import random

import pytest

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.core.dueling import SaturatingCounter
from repro.core.ipv import IPV, lru_ipv
from repro.policies import (
    DGIPPRPolicy,
    PDPPolicy,
    SHiPPolicy,
    TreePLRUPolicy,
    TrueLRUPolicy,
)
from repro.trace import Trace, mix, uniform_random


class TestCacheEdgeCases:
    def test_single_way_cache(self):
        """Direct-mapped works with positionless policies (IPV-based ones
        legitimately require associativity >= 2)."""
        from repro.policies import FIFOPolicy

        cache = SetAssociativeCache(4, 1, FIFOPolicy(4, 1), block_size=1)
        for a in [0, 4, 0, 4]:
            cache.access(a)
        assert cache.stats.misses == 4  # 0 and 4 conflict in set 0

    def test_single_set_cache(self):
        cache = SetAssociativeCache(1, 4, TrueLRUPolicy(1, 4), block_size=1)
        for a in range(8):
            cache.access(a)
        assert cache.stats.evictions == 4

    def test_bad_victim_detected(self):
        class BrokenPolicy(TrueLRUPolicy):
            def victim(self, set_index, ctx):
                return 99

        cache = SetAssociativeCache(1, 2, BrokenPolicy(1, 2), block_size=1)
        cache.access(0)
        cache.access(1)
        with pytest.raises(RuntimeError, match="invalid victim"):
            cache.access(2)

    def test_hierarchy_mixed_block_sizes(self):
        """Inclusion invalidates every upper block covered by an LLC block."""
        l1 = SetAssociativeCache(64, 2, TrueLRUPolicy(64, 2), block_size=32,
                                 name="L1")
        llc = SetAssociativeCache(2, 2, TrueLRUPolicy(2, 2), block_size=64,
                                  name="LLC")
        h = CacheHierarchy([l1, llc], inclusive_llc=True)
        # Three 64B blocks mapping to LLC set 0: byte addresses 0, 128, 256.
        for address in (0, 128, 256):
            h.access(address)
            h.access(address + 32)  # second half-block lands in L1 too
        assert not h.llc.contains(0)
        assert not h.levels[0].contains(0)
        assert not h.levels[0].contains(32)


class TestInclusiveDGIPPR:
    def test_dgippr_llc_with_inclusion_hook(self):
        """The inclusion wrapper must forward every hook DGIPPR needs
        (on_miss drives the duel; on_evict drives back-invalidation)."""
        l1 = SetAssociativeCache(256, 4, TrueLRUPolicy(256, 4), block_size=1,
                                 name="L1")
        policy = DGIPPRPolicy(16, 16)
        llc = SetAssociativeCache(16, 16, policy, block_size=1, name="LLC")
        h = CacheHierarchy([l1, llc], inclusive_llc=True)
        rng = random.Random(3)
        for _ in range(20_000):
            h.access(rng.randrange(600))
        # The duel still saw misses (PSEL moved or stayed dueling-capable)
        # and inclusion held: every L1-resident block is in the LLC.
        for s in range(256):
            for tag in l1.resident_tags(s):
                block = (tag << 8) | s
                assert llc.contains(block), block

    def test_wrapped_policy_statistics_accessible(self):
        policy = DGIPPRPolicy(16, 16)
        llc = SetAssociativeCache(16, 16, policy, block_size=1)
        h = CacheHierarchy(
            [SetAssociativeCache(64, 2, TrueLRUPolicy(64, 2), block_size=1),
             llc],
            inclusive_llc=True,
        )
        h.access(0)
        assert h.llc.policy.state_bits_per_set() == 15
        assert h.llc.policy.global_state_bits() == 33


class TestCounterEdgeCases:
    def test_one_bit_counter(self):
        c = SaturatingCounter(bits=1)
        assert (c.lo, c.hi) == (-1, 0)
        c.increment()
        assert c.value == 0
        c.decrement()
        c.decrement()
        assert c.value == -1


class TestPolicyEdgeCases:
    def test_dgippr_single_vector_degenerates_to_gippr(self):
        from repro.core.vectors import GIPPR_WI_VECTOR
        from repro.policies import GIPPRPolicy

        rng = random.Random(1)
        trace = [rng.randrange(600) for _ in range(10_000)]
        dgippr = DGIPPRPolicy(8, 16, ipvs=[GIPPR_WI_VECTOR])
        gippr = GIPPRPolicy(8, 16, ipv=GIPPR_WI_VECTOR)
        ca = SetAssociativeCache(8, 16, dgippr, block_size=1)
        cb = SetAssociativeCache(8, 16, gippr, block_size=1)
        for a in trace:
            ca.access(a)
            cb.access(a)
        assert ca.stats.misses == cb.stats.misses

    def test_pdp_minimum_counter_bits(self):
        with pytest.raises(ValueError):
            PDPPolicy(4, 4, counter_bits=1)

    def test_pdp_step_quantization(self):
        policy = PDPPolicy(4, 4, counter_bits=2)  # max RPD 3
        cache = SetAssociativeCache(4, 4, policy, block_size=1)

        def fill_rpd(address):
            assert not cache.access(address)
            set_index, tag = cache.locate(address)
            way = cache._way_of[set_index][tag]
            epoch = policy._epoch[set_index]
            return max(0, policy._expiry[set_index][way] - epoch)

        policy.pd = 10
        assert policy.step == 4  # ceil(10/3)
        assert policy._quantized_pd() <= policy.max_rpd
        assert fill_rpd(0) == policy._quantized_pd() == 3
        # A write to ``pd`` refreshes the cached step and quantized PD.
        policy.pd = 2
        assert policy.step == 1
        assert fill_rpd(1) == policy._quantized_pd() == 2

    def test_ship_small_table(self):
        policy = SHiPPolicy(4, 4, signature_bits=4)
        cache = SetAssociativeCache(4, 4, policy, block_size=1)
        rng = random.Random(2)
        for _ in range(2000):
            cache.access(rng.randrange(100), pc=rng.randrange(1000))
        assert all(0 <= v <= policy._shct_max for v in policy._shct)

    def test_rrip_one_bit_rrpv(self):
        from repro.policies import SRRIPPolicy

        policy = SRRIPPolicy(2, 4, rrpv_bits=1)
        cache = SetAssociativeCache(2, 4, policy, block_size=1)
        for a in range(32):
            cache.access(a)
        assert cache.stats.accesses == 32


class TestIPVEdgeCases:
    def test_minimum_associativity(self):
        ipv = lru_ipv(2)
        assert ipv.k == 2
        assert len(ipv.transition_edges()) > 0

    def test_all_self_loops_degenerate_unless_insert_mru(self):
        identity_mru = IPV([0, 1, 2, 3, 0])
        assert not identity_mru.is_degenerate()

    def test_with_name(self):
        renamed = lru_ipv(4).with_name("alias")
        assert renamed.name == "alias"
        assert renamed == lru_ipv(4)


class TestTraceEdgeCases:
    def test_empty_positions_none(self):
        trace = Trace([1, 2, 3])
        assert trace.position_list() is None

    def test_mix_single_trace_identity_length(self):
        t = uniform_random(10, 100, seed=1)
        m = mix([t], chunk=7)
        assert len(m) == 100

    def test_slice_empty_region(self):
        t = uniform_random(10, 100, seed=2)
        part = t.slice(50, 50)
        assert len(part) == 0


class TestReportingEdgeCases:
    def test_sorted_benchmarks_unknown_metric(self):
        from repro.eval import PolicySpec, default_config, run_suite

        suite = run_suite(
            [PolicySpec("LRU", "lru"), PolicySpec("PLRU", "plru")],
            config=default_config(trace_length=2000),
            benchmarks=["453.povray"],
        )
        with pytest.raises(ValueError, match="unknown metric"):
            suite.sorted_benchmarks("PLRU", metric="entropy")

    def test_bar_chart_unsorted(self):
        from repro.viz import bar_chart

        chart = bar_chart({"b": 2.0, "a": 1.0}, sort=False)
        lines = chart.splitlines()
        assert lines[0].startswith("b")  # insertion order preserved

    def test_overhead_row_nan_handling(self):
        from repro.eval import overhead_row

        row = overhead_row("belady", num_sets=16)
        assert math.isnan(row["bits_per_block"])
