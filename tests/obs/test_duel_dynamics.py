"""Set-dueling dynamics as seen through the event trace (ISSUE satellites).

Three contracts:

1. a crafted all-miss stream into a single policy-0 leader set makes the
   PSEL timeline monotonically non-decreasing (every miss increments);
2. ``duel_flip`` events fire *exactly* on leader-set misses — never on
   hits, never in follower sets — and the crafted flips land where the
   counter arithmetic says they must;
3. a JSONL trace written by a traced run reads back and replays to the
   same counts as the live cache statistics (write → parse → replay).
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.core.vectors import DGIPPR2_WI_VECTORS
from repro.obs import (
    JSONLSink,
    ListSink,
    Tracer,
    read_jsonl,
    replay_counts,
)
from repro.policies import make_policy

NUM_SETS, ASSOC = 16, 16


def _dueling_cache(ipvs=None, **kwargs):
    policy = make_policy(
        "dgippr", NUM_SETS, ASSOC,
        ipvs=ipvs or DGIPPR2_WI_VECTORS, **kwargs
    )
    cache = SetAssociativeCache(NUM_SETS, ASSOC, policy, block_size=1)
    return cache, policy


def _leader_set(selector, policy_index):
    for set_index in range(NUM_SETS):
        if selector.leader_policy(set_index) == policy_index:
            return set_index
    pytest.fail(f"no leader set for policy {policy_index}")


def _address(set_index, tag):
    return set_index + tag * NUM_SETS


class TestPselMonotonicity:
    def test_all_miss_leader0_stream_is_non_decreasing(self):
        cache, policy = _dueling_cache()
        leader0 = _leader_set(policy.selector, 0)
        sink = ListSink()
        cache.attach_tracer(Tracer(sink=sink, psel_every=1))
        for tag in range(200):  # distinct tags: every access misses
            cache.access(_address(leader0, tag))

        assert cache.stats.misses == 200 and cache.stats.hits == 0
        timeline = [e.value for e in sink
                    if e.kind == "psel_sample" and e.label == "psel"]
        assert len(timeline) == 200
        assert all(b >= a for a, b in zip(timeline, timeline[1:])), (
            "PSEL decreased despite only policy-0 leader misses"
        )
        # Every miss increments until saturation, so the timeline climbs.
        assert timeline[-1] > timeline[0]
        assert timeline[-1] <= policy.selector.counters["psel"].hi

    def test_counter_saturates_at_rail(self):
        cache, policy = _dueling_cache(counter_bits=4)  # hi = 7
        leader0 = _leader_set(policy.selector, 0)
        for tag in range(50):
            cache.access(_address(leader0, tag))
        psel = policy.selector.counters["psel"]
        assert psel.value == psel.hi == 7


class TestDuelFlips:
    def test_flips_fire_exactly_on_leader_set_misses(self):
        """Drive the PSEL across zero twice; each crossing is one flip."""
        cache, policy = _dueling_cache()
        selector = policy.selector
        leader0 = _leader_set(selector, 0)
        leader1 = _leader_set(selector, 1)
        sink = ListSink()
        cache.attach_tracer(Tracer(sink=sink))

        assert selector.selected() == 1  # psel == 0 selects policy 1
        # Phase 1: a miss in the policy-1 leader decrements PSEL to -1,
        # flipping the follower policy to 0 on that very access.
        cache.access(_address(leader1, 0))
        # Phase 2: a miss in the policy-0 leader increments back to 0,
        # flipping the follower policy back to 1.
        cache.access(_address(leader0, 0))
        # Hits and follower-set misses must not flip anything.
        cache.access(_address(leader1, 0))  # hit
        follower = next(
            s for s in range(NUM_SETS) if selector.leader_policy(s) == -1
        )
        cache.access(_address(follower, 0))  # follower miss

        flips = [e for e in sink if e.kind == "duel_flip"]
        misses = {(e.access, e.set) for e in sink if e.kind == "miss"}
        assert [(e.value, e.policy) for e in flips] == [(1, 0), (0, 1)]
        for flip in flips:
            assert (flip.access, flip.set) in misses, (
                "flip fired outside a miss"
            )
            assert selector.leader_policy(flip.set) >= 0, (
                "flip fired in a follower set"
            )
        assert {e.set for e in flips} == {leader1, leader0}

    def test_tournament_flips_only_on_leader_misses(self):
        """4-policy tournament: every flip coincides with a leader miss."""
        from repro.core.vectors import DGIPPR4_WI_VECTORS

        cache, policy = _dueling_cache(ipvs=DGIPPR4_WI_VECTORS)
        selector = policy.selector
        sink = ListSink()
        cache.attach_tracer(Tracer(sink=sink))

        assert selector.selected() == 3  # all counters at zero
        # A miss in the pair-23 leader for policy 2 bumps pair23 up and
        # meta down, handing the meta duel to pair 01 → follower flips
        # from 3 to 1 immediately.
        leader2 = _leader_set(selector, 2)
        cache.access(_address(leader2, 0))
        state = (2 * 16 * 16)  # distinct tag space for the mixed tail
        for i in range(500):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            cache.access(state % (NUM_SETS * ASSOC * 2))

        flips = [e for e in sink if e.kind == "duel_flip"]
        misses = {(e.access, e.set) for e in sink if e.kind == "miss"}
        assert flips and (flips[0].value, flips[0].policy) == (3, 1)
        for flip in flips:
            assert (flip.access, flip.set) in misses
            assert selector.leader_policy(flip.set) >= 0
            assert flip.policy != flip.value


class TestJsonlRoundTrip:
    def test_write_parse_replay_matches_stats(self, tmp_path):
        path = tmp_path / "duel.jsonl"
        cache, policy = _dueling_cache()
        with Tracer(sink=JSONLSink(path), psel_every=25) as tracer:
            cache.attach_tracer(tracer)
            state = 9
            for _ in range(2000):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                cache.access(state % (NUM_SETS * ASSOC * 2))

        counts = replay_counts(read_jsonl(path, validate=True))
        stats = cache.stats
        assert counts["accesses"] == stats.accesses == 2000
        assert counts["hits"] == stats.hits
        assert counts["misses"] == stats.misses
        assert counts["evictions"] == stats.evictions
        assert counts["bypasses"] == stats.bypasses == 0
        assert counts["psel_samples"] > 0
