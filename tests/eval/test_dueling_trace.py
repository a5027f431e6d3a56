"""Set-dueling adaptivity over a phased trace (Section 3.5), and mixes."""

import functools

import pytest

from repro.cache import SetAssociativeCache
from repro.core.ipv import IPV
from repro.policies import DGIPPRPolicy
from repro.trace import concatenate, noisy_loop, stack_distance

PHASE = 20_000


def phased_trace():
    friendly = stack_distance(
        list(range(300, 800, 50)), [1.0] * 10, PHASE, cold_fraction=0.15, seed=1
    )
    thrash = noisy_loop(1500, PHASE, noise=0.25, seed=2)
    return concatenate([friendly, thrash, friendly.slice(0, PHASE)], name="p")


@functools.lru_cache(maxsize=1)
def follower_picks():
    """The followers' vector after every access of a PMRU-vs-PLRU-insertion
    duel over the friendly / thrash / friendly phases."""
    pmru = IPV([0] * 17, name="pmru")
    plru = IPV([0] * 16 + [15], name="plru-ins")
    policy = DGIPPRPolicy(64, 16, ipvs=[pmru, plru], counter_bits=8)
    cache = SetAssociativeCache(64, 16, policy, block_size=1)
    picks = []
    for address, pc in phased_trace():
        cache.access(address, pc=pc)
        picks.append(policy.selector.selected())
    return tuple(picks)


def switch_points(picks):
    return [i for i in range(1, len(picks)) if picks[i] != picks[i - 1]]


class TestDuelAdaptivity:
    def test_both_vectors_govern_the_followers(self):
        picks = follower_picks()
        occupancy = {v: picks.count(v) / len(picks) for v in set(picks)}
        assert len(switch_points(picks)) >= 1
        assert set(occupancy) == {0, 1}
        assert sum(occupancy.values()) == pytest.approx(1.0)

    def test_switches_within_thrash_phase(self):
        # The thrash phase starting at PHASE must trigger a switch within
        # the phase (the adaptivity claim of Section 3.5).
        after = [i for i in switch_points(follower_picks()) if i >= PHASE]
        assert after and after[0] - PHASE < PHASE


class TestMixes:
    def test_named_mixes_resolve(self):
        from repro.workloads.mixes import get_mix, mix_names

        for name in mix_names():
            benchmarks = get_mix(name)
            assert len(benchmarks) in (2, 4)

    def test_unknown_mix(self):
        from repro.workloads.mixes import get_mix

        with pytest.raises(ValueError):
            get_mix("nonesuch")

    def test_mix_runs_through_multicore(self):
        from repro.eval import default_config, run_multicore
        from repro.workloads.mixes import get_mix

        result = run_multicore(
            "lru", get_mix("friendly2"),
            config=default_config(trace_length=4000),
        )
        # All-friendly control: sharing costs nearly nothing.
        assert result.weighted_speedup > 1.9
