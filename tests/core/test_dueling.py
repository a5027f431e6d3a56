"""Tests for set-dueling: counters, leader assignment, selectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dueling import (
    BracketSelector,
    DuelSelector,
    SaturatingCounter,
    TournamentSelector,
    assign_leader_sets,
    default_leaders_per_policy,
    make_selector,
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
        sel = TournamentSelector(2)
        assert [sel.leader_policy(s) for s in range(2)] == [-1, -1]
        sel.record_miss(0)  # follower miss: counters must not move
        assert (sel.pair01.value, sel.pair23.value, sel.meta.value) == (0, 0, 0)
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
        before = sel.psel.value
        sel.record_miss(follower)
        assert sel.psel.value == before


class TestTournamentSelector:
    def _selector(self):
        return TournamentSelector(512, leaders_per_policy=8)

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
            BracketSelector(512, 6)

    @pytest.mark.parametrize("num_policies", [2, 4, 8])
    @pytest.mark.parametrize("winner_mod", [0, 1])
    def test_quietest_policy_wins(self, num_policies, winner_mod):
        winner = (num_policies - 1) if winner_mod else 0
        sel = BracketSelector(1024, num_policies, leaders_per_policy=4)
        for policy in range(num_policies):
            if policy == winner:
                continue
            leaders = [s for s in range(1024) if sel.leader_policy(s) == policy]
            for s in leaders * 30:
                sel.record_miss(s)
        assert sel.selected() == winner

    def test_matches_tournament_for_four(self):
        """Bracket and Loh tournament agree on every single-winner scenario."""
        for winner in range(4):
            bracket = BracketSelector(512, 4, leaders_per_policy=8, seed=42)
            loh = TournamentSelector(512, leaders_per_policy=8, seed=42)
            for policy in range(4):
                if policy == winner:
                    continue
                leaders = [
                    s for s in range(512) if bracket.leader_policy(s) == policy
                ]
                for s in leaders * 20:
                    bracket.record_miss(s)
                    loh.record_miss(s)
            assert bracket.selected() == loh.selected() == winner


class TestMakeSelector:
    def test_single_policy_constant(self):
        sel = make_selector(64, 1)
        assert sel.selected() == 0
        assert sel.policy_for_set(5) == 0
        sel.record_miss(5)  # no-op

    def test_dispatch(self):
        assert isinstance(make_selector(512, 2), DuelSelector)
        assert isinstance(make_selector(512, 4), TournamentSelector)
        assert isinstance(make_selector(512, 8), BracketSelector)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            make_selector(512, 6)

    @pytest.mark.parametrize("num_sets", [1, 2, 8, 64, 512, 4096])
    @pytest.mark.parametrize("num_policies", [2, 4, 8])
    def test_default_leaders_match_selector_default(
        self, num_sets, num_policies
    ):
        """Without a leader count, make_selector assigns the same leaders
        as the selector classes (and DGIPPRPolicy) do by default."""
        if num_policies == 2:
            direct = DuelSelector(num_sets)
        elif num_policies == 4:
            direct = TournamentSelector(num_sets)
        else:
            direct = BracketSelector(num_sets, num_policies)
        assert make_selector(num_sets, num_policies).leaders == direct.leaders

    def test_default_keeps_followers(self):
        leaders = make_selector(64, 4).leaders
        assert sum(p >= 0 for p in leaders) == 4 * default_leaders_per_policy(
            64, 4
        ) == 8
        assert leaders.count(-1) == 56
