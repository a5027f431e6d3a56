"""Tests for set-dueling: counters, leader assignment, the selector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dueling import (
    DuelSelector,
    SaturatingCounter,
    assign_leader_sets,
    default_leaders_per_policy,
)


class TestSaturatingCounter:
    def test_bounds(self):
        c = SaturatingCounter(bits=3)
        assert (c.lo, c.hi) == (-4, 3)

    def test_saturates_high(self):
        c = SaturatingCounter(bits=3)
        for _ in range(20):
            c.increment()
        assert c.value == 3

    def test_saturates_low(self):
        c = SaturatingCounter(bits=3)
        for _ in range(20):
            c.decrement()
        assert c.value == -4

    def test_rejects_bad_init(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=3, init=10)
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)

    @given(ops=st.lists(st.booleans(), max_size=300), bits=st.integers(1, 12))
    @settings(max_examples=100)
    def test_always_within_bounds(self, ops, bits):
        c = SaturatingCounter(bits=bits)
        for up in ops:
            c.increment() if up else c.decrement()
            assert c.lo <= c.value <= c.hi

    def test_rejects_non_integer_bits(self):
        with pytest.raises(TypeError):
            SaturatingCounter(bits=2.0)
        with pytest.raises(TypeError):
            SaturatingCounter(bits=True)  # bool used to mean "1-bit"
        with pytest.raises(TypeError):
            SaturatingCounter(bits=3, init=1.5)


class TestLeaderAssignment:
    def test_counts(self):
        leaders = assign_leader_sets(4096, 4, 32)
        for policy in range(4):
            assert leaders.count(policy) == 32
        assert leaders.count(-1) == 4096 - 128

    def test_deterministic(self):
        assert assign_leader_sets(256, 2, 8) == assign_leader_sets(256, 2, 8)

    def test_distinct_seeds_differ(self):
        a = assign_leader_sets(256, 2, 8, seed=1)
        b = assign_leader_sets(256, 2, 8, seed=2)
        assert a != b

    def test_too_many_leaders_clamped(self):
        # An oversized request degrades to num_sets // num_policies leaders
        # per policy instead of raising (tiny scaled-down geometries).
        leaders = assign_leader_sets(16, 4, 32)
        for policy in range(4):
            assert leaders.count(policy) == 4
        assert leaders.count(-1) == 0

    def test_tiny_geometry_degrades_to_followers(self):
        # num_sets=2 with 4 policies cannot give every policy a leader;
        # the auto default degrades to zero leaders (all followers).
        leaders = assign_leader_sets(2, 4)
        assert leaders == [-1, -1]
        # An explicit request is clamped the same way.
        assert assign_leader_sets(2, 4, 1) == [-1, -1]
        # Three sets, two policies: one leader each, one follower.
        leaders = assign_leader_sets(3, 2, 5)
        assert sorted(leaders) == [-1, 0, 1]

    def test_negative_leaders_rejected(self):
        with pytest.raises(ValueError):
            assign_leader_sets(16, 4, -1)

    def test_default_scaling(self):
        assert default_leaders_per_policy(4096, 2) == 32
        assert default_leaders_per_policy(4096, 4) == 32
        assert default_leaders_per_policy(64, 4) == 2
        assert default_leaders_per_policy(256, 4) == 8
        # Tiny geometries: never force a leader count that cannot fit.
        assert default_leaders_per_policy(2, 4) == 0
        assert default_leaders_per_policy(4, 4) == 1
        assert default_leaders_per_policy(1, 2) == 0

    def test_tiny_geometry_selectors_construct(self):
        # Seed code raised here (max(1, ...) forced 1 leader/policy while
        # needed=4 > num_sets=2); now all sets become followers.
        sel = DuelSelector(2, 4)
        assert [sel.leader_policy(s) for s in range(2)] == [-1, -1]
        sel.record_miss(0)  # follower miss: counters must not move
        assert tuple(
            sel.counters[name].value for name in ("pair01", "pair23", "meta")
        ) == (0, 0, 0)
        assert sel.policy_for_set(0) == sel.selected()
        duel = DuelSelector(1)
        assert duel.policy_for_set(0) == duel.selected()


class TestDuelSelector:
    def test_policy_zero_wins_when_policy_one_misses(self):
        sel = DuelSelector(256, leaders_per_policy=8)
        ones = [s for s in range(256) if sel.leader_policy(s) == 1]
        for s in ones * 10:
            sel.record_miss(s)
        assert sel.selected() == 0

    def test_policy_one_wins_when_policy_zero_misses(self):
        sel = DuelSelector(256, leaders_per_policy=8)
        zeros = [s for s in range(256) if sel.leader_policy(s) == 0]
        for s in zeros * 10:
            sel.record_miss(s)
        assert sel.selected() == 1

    def test_followers_follow_selected(self):
        sel = DuelSelector(256, leaders_per_policy=8)
        follower = next(s for s in range(256) if sel.leader_policy(s) == -1)
        assert sel.policy_for_set(follower) == sel.selected()

    def test_leaders_always_run_their_policy(self):
        sel = DuelSelector(256, leaders_per_policy=8)
        zeros = [s for s in range(256) if sel.leader_policy(s) == 0]
        for s in zeros * 100:
            sel.record_miss(s)
        # Even though policy 1 is selected, policy-0 leaders stay policy 0.
        assert sel.policy_for_set(zeros[0]) == 0

    def test_follower_misses_do_not_move_counter(self):
        sel = DuelSelector(256, leaders_per_policy=8)
        follower = next(s for s in range(256) if sel.leader_policy(s) == -1)
        before = sel.counters["psel"].value
        sel.record_miss(follower)
        assert sel.counters["psel"].value == before


class TestTournamentSelector:
    def _selector(self):
        return DuelSelector(512, 4, leaders_per_policy=8)

    def _leaders(self, sel, policy):
        return [s for s in range(512) if sel.leader_policy(s) == policy]

    @pytest.mark.parametrize("winner", [0, 1, 2, 3])
    def test_least_missing_policy_wins(self, winner):
        sel = self._selector()
        for policy in range(4):
            if policy == winner:
                continue
            for s in self._leaders(sel, policy) * 20:
                sel.record_miss(s)
        assert sel.selected() == winner

    def test_meta_counter_picks_better_pair(self):
        sel = self._selector()
        # Pair {0,1} misses a lot; pair {2,3} is quiet.
        for policy in (0, 1):
            for s in self._leaders(sel, policy) * 20:
                sel.record_miss(s)
        assert sel.selected() in (2, 3)


class TestBracketSelector:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            DuelSelector(512, 6)

    @pytest.mark.parametrize("num_policies", [2, 4, 8])
    @pytest.mark.parametrize("winner_mod", [0, 1])
    def test_quietest_policy_wins(self, num_policies, winner_mod):
        winner = (num_policies - 1) if winner_mod else 0
        sel = DuelSelector(1024, num_policies, leaders_per_policy=4)
        for policy in range(num_policies):
            if policy == winner:
                continue
            leaders = [s for s in range(1024) if sel.leader_policy(s) == policy]
            for s in leaders * 30:
                sel.record_miss(s)
        assert sel.selected() == winner


class TestMakeSelector:
    """Making a selector: policy counts and default leaders."""

    def test_single_policy_constant(self):
        sel = DuelSelector(64, 1)
        assert sel.selected() == 0
        assert sel.policy_for_set(5) == 0
        sel.record_miss(5)  # no-op
        assert sel.leaders == [-1] * 64 and sel.counters == {}

    def test_rejects_bad_count(self):
        for count in (0, 6):
            with pytest.raises(ValueError):
                DuelSelector(512, count)

    @pytest.mark.parametrize("num_sets", [1, 2, 8, 64, 512, 4096])
    @pytest.mark.parametrize("num_policies", [2, 4, 8])
    def test_default_leaders_match_selector_default(
        self, num_sets, num_policies
    ):
        """Without a leader count, the selector (and so DGIPPRPolicy)
        assigns default_leaders_per_policy leaders to each policy."""
        direct = assign_leader_sets(
            num_sets, num_policies,
            default_leaders_per_policy(num_sets, num_policies),
        )
        assert DuelSelector(num_sets, num_policies).leaders == direct

    def test_default_keeps_followers(self):
        leaders = DuelSelector(64, 4).leaders
        assert sum(p >= 0 for p in leaders) == 4 * default_leaders_per_policy(
            64, 4
        ) == 8
        assert leaders.count(-1) == 56


def reference_counters(num_policies):
    """The duelling counters as ``name -> (first group, second group)``.

    Two policies: the PSEL counter of Qureshi et al.  Four: Loh's pair
    counters and the meta-counter that duels the pairs.  Eight: the same
    tournament one round deeper (pairs, quads, then the two halves).
    """
    if num_policies == 2:
        return {"psel": ({0}, {1})}
    if num_policies == 4:
        return {
            "pair01": ({0}, {1}),
            "pair23": ({2}, {3}),
            "meta": ({0, 1}, {2, 3}),
        }
    counters = {}
    size, level = 2, 0
    while size <= num_policies:
        for group, first in enumerate(range(0, num_policies, size)):
            half = first + size // 2
            counters[f"level{level}_{group}"] = (
                set(range(first, half)), set(range(half, first + size))
            )
        size, level = size * 2, level + 1
    return counters


def reference_duel(num_policies, bits, leaders, misses):
    """Counter values and follower pick after each miss, by the rules.

    A leader miss of policy ``p`` counts up every counter whose first
    group holds ``p`` and down every counter whose second group does,
    saturating at the ``bits``-bit rails; follower misses count nothing.
    Followers start from all policies and keep the first group of the
    counter duelling their candidates while it is negative (the first
    group missed less), else the second, until one policy is left.
    """
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    groups = reference_counters(num_policies)
    values = dict.fromkeys(groups, 0)
    for set_index in misses:
        p = leaders[set_index]
        if p >= 0:
            for name, (first, second) in groups.items():
                if p in first:
                    values[name] = min(hi, values[name] + 1)
                elif p in second:
                    values[name] = max(lo, values[name] - 1)
        candidates = set(range(num_policies))
        while len(candidates) > 1:
            name = next(n for n, (a, b) in groups.items()
                        if a | b == candidates)
            first, second = groups[name]
            candidates = first if values[name] < 0 else second
        yield dict(values), min(candidates)


class TestBracketAgainstReference:
    @given(
        num_policies=st.sampled_from([2, 4, 8]),
        bits=st.integers(1, 4),
        misses=st.lists(st.integers(0, 63), max_size=200),
    )
    @settings(max_examples=200)
    def test_counters_and_pick_after_every_miss(
        self, num_policies, bits, misses
    ):
        sel = DuelSelector(64, num_policies, leaders_per_policy=3,
                           counter_bits=bits)
        assert list(sel.counters) == list(reference_counters(num_policies))
        expected = reference_duel(num_policies, bits, sel.leaders, misses)
        for set_index, (values, pick) in zip(misses, expected):
            sel.record_miss(set_index)
            got = {name: c.value for name, c in sel.counters.items()}
            assert (got, sel.selected()) == (values, pick)
            leader = sel.leader_policy(set_index)
            assert sel.policy_for_set(set_index) == (
                leader if leader >= 0 else pick
            )
