"""Tests for the Protecting Distance Policy."""

import random
from typing import Dict, List

import pytest

from repro.cache import SetAssociativeCache
from repro.policies import PDPPolicy, TrueLRUPolicy
from repro.policies.base import AccessContext, ReplacementPolicy
from repro.policies.pdp import compute_protecting_distance


class TestProtectingDistanceComputation:
    def test_empty_histogram_returns_default(self):
        assert compute_protecting_distance([0] * 50, default_pd=17) == 17

    def test_single_spike(self):
        """All reuses at distance 10: protecting through 10 is optimal."""
        histogram = [0] * 64
        histogram[10] = 1000
        assert compute_protecting_distance(histogram, default_pd=17) == 10

    def test_ignores_unreachable_tail(self):
        """Reuses at 5 plus a tail at 60: the tail costs more occupancy
        than it earns, so the PD should stay at the spike."""
        histogram = [0] * 64
        histogram[5] = 1000
        histogram[60] = 40
        assert compute_protecting_distance(histogram, default_pd=17) == 5

    def test_covers_big_second_mode(self):
        """A second mode with substantial mass extends the PD."""
        histogram = [0] * 64
        histogram[5] = 500
        histogram[20] = 800
        assert compute_protecting_distance(histogram, default_pd=17) == 20

    def test_monotone_cost_of_protection(self):
        """With uniform reuses everywhere, some interior PD is chosen."""
        histogram = [10] * 32
        pd = compute_protecting_distance(histogram, default_pd=17)
        assert 1 <= pd <= 31


class TestPDPPolicy:
    def test_protected_line_survives_scan(self):
        """A hot block with short reuse distance survives one-shot scans."""
        policy = PDPPolicy(1, 4, recompute_interval=64)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        rng = random.Random(5)
        hits_hot = 0
        touches_hot = 0
        scan = 100
        for i in range(6000):
            if i % 3 == 0:
                touches_hot += 1
                if cache.access(0):
                    hits_hot += 1
            else:
                cache.access(scan)
                scan += 1
        assert hits_hot / touches_hot > 0.8

    def test_beats_lru_on_thrash_loop(self):
        policy = PDPPolicy(64, 16, recompute_interval=512)
        cache = SetAssociativeCache(64, 16, policy, block_size=1)
        lru_cache = SetAssociativeCache(
            64, 16, TrueLRUPolicy(64, 16), block_size=1
        )
        for i in range(60_000):
            addr = (i * 3) % 1408  # loop of 1408 blocks > 1024 capacity
            cache.access(addr)
            lru_cache.access(addr)
        assert cache.stats.misses < lru_cache.stats.misses

    def test_pd_recomputed(self):
        policy = PDPPolicy(4, 4, recompute_interval=128, sampled_set_stride=1)
        cache = SetAssociativeCache(4, 4, policy, block_size=1)
        rng = random.Random(7)
        for _ in range(5000):
            cache.access(rng.randrange(30))
        assert policy.recompute_count > 0

    def test_pd_tracks_reuse_distance(self):
        """A strict 8-block loop per set yields reuse distance 8; the PD
        should settle at or just above it."""
        policy = PDPPolicy(1, 16, recompute_interval=256, sampled_set_stride=1)
        cache = SetAssociativeCache(1, 16, policy, block_size=1)
        for i in range(8000):
            cache.access(i % 8)
        assert 7 <= policy.pd <= 12

    def test_victim_prefers_unprotected(self):
        policy = PDPPolicy(1, 4, default_pd=8)
        cache = SetAssociativeCache(1, 4, policy, block_size=1)
        for a in range(4):
            cache.access(a)
        # Touch 0 repeatedly so it stays protected; let others decay.
        for _ in range(40):
            cache.access(0)
        ctx = AccessContext()
        victim = policy.victim(0, ctx)
        assert cache._tags[0][victim] != 0

    def test_state_accounting(self):
        policy = PDPPolicy(4096, 16)
        assert policy.state_bits_per_set() == 64  # 4 bits x 16 blocks
        assert policy.global_state_bits() > 0


# ----------------------------------------------------------------------
# Differential test: PDPPolicy keeps an expiry epoch per line and a decay
# epoch per set, so a decay tick is one increment.  The reference below is
# the eager form it replaced, which decrements every RPD of the set on
# each tick; the two must agree access for access.  PD adaptation is
# pinned nowhere else: the PDP golden cells never recompute the PD.
# ----------------------------------------------------------------------
class EagerPDPPolicy(ReplacementPolicy):
    """Protecting Distance Policy without bypass, 4 bits per block."""

    name = "pdp"

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        counter_bits: int = 4,
        max_distance: int = 256,
        recompute_interval: int = 512,
        sampled_set_stride: int = 4,
        default_pd: int = 17,
    ):
        super().__init__(num_sets, assoc)
        if counter_bits < 2:
            raise ValueError("PDP needs at least 2 counter bits")
        self.counter_bits = counter_bits
        self.max_rpd = (1 << counter_bits) - 1
        self.max_distance = max_distance
        self.recompute_interval = recompute_interval
        self.sampled_set_stride = sampled_set_stride
        self.pd = default_pd
        self._default_pd = default_pd
        self._rpd: List[List[int]] = [[0] * assoc for _ in range(num_sets)]
        self._set_accesses: List[int] = [0] * num_sets
        self._decay_tick: List[int] = [0] * num_sets
        # Per sampled set: block address -> set-access count at last touch.
        self._last_touch: Dict[int, Dict[int, int]] = {
            s: {} for s in range(0, num_sets, sampled_set_stride)
        }
        self._histogram: List[int] = [0] * (max_distance + 1)
        self._samples_since_recompute = 0
        self.recompute_count = 0

    # ------------------------------------------------------------------
    # Quantization: the RPD counter has few bits, so it decays once every
    # ``step`` set accesses instead of every access.
    # ------------------------------------------------------------------
    @property
    def step(self) -> int:
        """Set accesses per RPD decay tick (ceil(PD / max counter))."""
        return max(1, -(-self.pd // self.max_rpd))

    def _quantized_pd(self) -> int:
        return min(self.max_rpd, -(-self.pd // self.step))

    def _tick_and_observe(self, set_index: int, ctx: AccessContext) -> None:
        """Advance the set clock, decay RPDs, and sample reuse distance."""
        self._set_accesses[set_index] += 1
        self._decay_tick[set_index] += 1
        if self._decay_tick[set_index] >= self.step:
            self._decay_tick[set_index] = 0
            rpd = self._rpd[set_index]
            for way in range(self.assoc):
                if rpd[way] > 0:
                    rpd[way] -= 1
        sampler = self._last_touch.get(set_index)
        if sampler is None:
            return
        now = self._set_accesses[set_index]
        last = sampler.get(ctx.block)
        if last is not None:
            distance = min(now - last, self.max_distance)
            self._histogram[distance] += 1
        sampler[ctx.block] = now
        self._samples_since_recompute += 1
        if self._samples_since_recompute >= self.recompute_interval:
            self._recompute()

    def _recompute(self) -> None:
        self.pd = compute_protecting_distance(self._histogram, self._default_pd)
        self.recompute_count += 1
        self._samples_since_recompute = 0
        # Exponential decay so the PD tracks phase changes.
        self._histogram = [n >> 1 for n in self._histogram]

    # ------------------------------------------------------------------
    # Policy hooks.
    # ------------------------------------------------------------------
    def victim(self, set_index: int, ctx: AccessContext) -> int:
        rpd = self._rpd[set_index]
        # Prefer any unprotected line (scan for RPD 0)...
        youngest_way = 0
        youngest_rpd = rpd[0]
        for way in range(self.assoc):
            value = rpd[way]
            if value == 0:
                return way
            if value > youngest_rpd:
                youngest_rpd = value
                youngest_way = way
        # ...else evict the youngest protected line (highest RPD).
        return youngest_way

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._tick_and_observe(set_index, ctx)
        self._rpd[set_index][way] = self._quantized_pd()

    def on_miss(self, set_index: int, ctx: AccessContext) -> None:
        self._tick_and_observe(set_index, ctx)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._rpd[set_index][way] = self._quantized_pd()


def effective_rpds(policy: PDPPolicy, set_index: int) -> List[int]:
    """The RPD counters of one set: ``max(0, expiry - epoch)`` per way."""
    epoch = policy._epoch[set_index]
    return [max(0, e - epoch) for e in policy._expiry[set_index]]


def phased_stream(num_sets: int, assoc: int, n: int, seed: int) -> List[int]:
    """Phases of a hot set, a loop and random misses, with a footprint that
    changes every 2000 accesses, so the reuse histogram (and the PD) keeps
    moving."""
    rng = random.Random(seed)
    capacity = num_sets * assoc
    hot = max(2, capacity // 8)
    out: List[int] = []
    while len(out) < n:
        loop = max(2, int(capacity * rng.choice((0.25, 0.75, 1.25, 2.5))))
        for i in range(2000):
            r = rng.random()
            if r < 0.35:
                out.append(rng.randrange(hot))
            elif r < 0.85:
                out.append(hot + i % loop)
            else:
                out.append(hot + loop + rng.randrange(4 * capacity))
    return out[:n]


GEOMETRIES = [(64, 16), (8, 4), (1, 4)]


@pytest.mark.parametrize("counter_bits", [2, 3, 4])
@pytest.mark.parametrize("recompute_interval", [32, 128, 512])
@pytest.mark.parametrize("num_sets,assoc", GEOMETRIES)
def test_lazy_decay_matches_eager_reference(
    num_sets, assoc, recompute_interval, counter_bits
):
    kwargs = dict(
        counter_bits=counter_bits, recompute_interval=recompute_interval
    )
    lazy = PDPPolicy(num_sets, assoc, **kwargs)
    eager = EagerPDPPolicy(num_sets, assoc, **kwargs)
    lazy_cache = SetAssociativeCache(num_sets, assoc, lazy, block_size=1)
    eager_cache = SetAssociativeCache(num_sets, assoc, eager, block_size=1)
    stream = phased_stream(
        num_sets, assoc, 20_000, seed=num_sets + recompute_interval + counter_bits
    )
    pds_seen = set()
    for i, address in enumerate(stream):
        hit = lazy_cache.access(address)
        assert hit == eager_cache.access(address), f"access {i}: {address}"
        if i % 97 == 0:
            pds_seen.add(lazy.pd)
            assert (lazy.pd, lazy.step) == (eager.pd, eager.step), f"access {i}"
            for s in range(num_sets):
                assert effective_rpds(lazy, s) == eager._rpd[s], (
                    f"access {i}, set {s}"
                )
    assert lazy.pd == eager.pd
    assert lazy.recompute_count == eager.recompute_count > 0
    assert len(pds_seen) > 1, "the stream never moved the PD"
    assert lazy_cache.stats.misses == eager_cache.stats.misses
