"""Set-dueling machinery (Section 2.3 background, Section 3.5 usage).

Set-dueling (Qureshi et al.) dedicates a few *leader sets* to each candidate
policy and lets a saturating counter track which leader group misses less;
all remaining *follower sets* adopt the winning policy.

Two selectors are provided:

* :class:`DuelSelector` — two policies, one PSEL counter (as in DIP and
  2-DGIPPR; the paper uses a single 11-bit counter).
* :class:`TournamentSelector` — four policies via Loh-style multi-set
  dueling: two pair counters plus a meta-counter (4-DGIPPR; three 11-bit
  counters total).
"""

from __future__ import annotations

import random
from typing import List, Optional

__all__ = [
    "SaturatingCounter",
    "assign_leader_sets",
    "DuelSelector",
    "TournamentSelector",
    "make_selector",
]


class SaturatingCounter:
    """Signed saturating up/down counter with a fixed bit width.

    An n-bit counter saturates at ``[-2**(n-1), 2**(n-1) - 1]``.  The paper
    uses 11-bit counters for DGIPPR's set-dueling.
    """

    __slots__ = ("bits", "lo", "hi", "value")

    def __init__(self, bits: int = 11, init: int = 0):
        # Reject degenerate widths *and* non-integral widths: a float or
        # bool ``bits`` would silently build a counter with nonsensical
        # saturation bounds (``1 << (2.0 - 1)`` raises much later, deep in
        # an experiment; ``bits=True`` used to mean a 1-bit counter).
        if isinstance(bits, bool) or not isinstance(bits, int):
            raise TypeError(f"bits must be an int, got {type(bits).__name__}")
        if bits < 1:
            raise ValueError("counter needs at least 1 bit")
        self.bits = bits
        self.lo = -(1 << (bits - 1))
        self.hi = (1 << (bits - 1)) - 1
        if not isinstance(init, int) or isinstance(init, bool):
            raise TypeError(f"init must be an int, got {type(init).__name__}")
        if not self.lo <= init <= self.hi:
            raise ValueError(f"init {init} outside {bits}-bit range")
        self.value = init

    def increment(self) -> None:
        if self.value < self.hi:
            self.value += 1

    def decrement(self) -> None:
        if self.value > self.lo:
            self.value -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SaturatingCounter(bits={self.bits}, value={self.value})"


def default_leaders_per_policy(num_sets: int, num_policies: int) -> int:
    """Leader sets per policy when the caller does not specify.

    The paper (and DIP/DRRIP) use 32 leaders per policy on a 4096-set LLC;
    for scaled-down caches this keeps the leader fraction per policy around
    1.5–12 % so dueling still samples representatively without dominating
    the cache.  On tiny geometries where even one leader per policy would
    not fit (``num_sets < num_policies``) this degrades to zero leaders —
    every set follows the counters' initial winner — rather than forcing an
    impossible assignment.
    """
    return min(
        32,
        max(1, num_sets // (8 * num_policies)),
        num_sets // num_policies,
    )


def assign_leader_sets(
    num_sets: int,
    num_policies: int,
    leaders_per_policy: Optional[int] = None,
    seed: int = 0xDEAD,
) -> List[int]:
    """Assign a leader policy (or -1 for follower) to each cache set.

    Sets are shuffled deterministically and the first ``leaders_per_policy``
    become leaders for policy 0, the next block for policy 1, and so on.
    This spreads each policy's leaders uniformly across the index space, the
    property constituency-based selection is designed for.

    Requests that do not fit the geometry are clamped rather than rejected:
    a cache with fewer sets than ``num_policies * leaders_per_policy`` gets
    ``num_sets // num_policies`` leaders per policy (possibly zero, in
    which case every set is a follower).  This lets the paper's 32-leader
    default degrade gracefully on scaled-down caches instead of raising.
    """
    if leaders_per_policy is None:
        leaders_per_policy = default_leaders_per_policy(num_sets, num_policies)
    if leaders_per_policy < 0:
        raise ValueError("leaders_per_policy cannot be negative")
    leaders_per_policy = min(leaders_per_policy, num_sets // num_policies)
    order = list(range(num_sets))
    random.Random(seed).shuffle(order)
    assignment = [-1] * num_sets
    for policy in range(num_policies):
        start = policy * leaders_per_policy
        for set_index in order[start : start + leaders_per_policy]:
            assignment[set_index] = policy
    return assignment


class DuelSelector:
    """Two-policy set-dueling with a single PSEL counter.

    A miss in a policy-0 leader set increments the counter; a miss in a
    policy-1 leader set decrements it.  Followers run policy 0 while the
    counter is negative (policy 0 has missed less), else policy 1 — the
    convention of Qureshi et al. as restated in Section 2.3.
    """

    num_policies = 2

    def __init__(
        self,
        num_sets: int,
        leaders_per_policy: Optional[int] = None,
        counter_bits: int = 11,
        seed: int = 0xDEAD,
    ):
        self.leaders = assign_leader_sets(
            num_sets, 2, leaders_per_policy, seed=seed
        )
        self.psel = SaturatingCounter(counter_bits)

    def leader_policy(self, set_index: int) -> int:
        """Leader policy for a set, or -1 when the set is a follower."""
        return self.leaders[set_index]

    def record_miss(self, set_index: int) -> None:
        leader = self.leaders[set_index]
        if leader == 0:
            self.psel.increment()
        elif leader == 1:
            self.psel.decrement()

    def selected(self) -> int:
        """Policy currently followed by the follower sets."""
        return 0 if self.psel.value < 0 else 1

    def policy_for_set(self, set_index: int) -> int:
        leader = self.leaders[set_index]
        return leader if leader >= 0 else self.selected()


class TournamentSelector:
    """Four-policy multi-set dueling (Loh), used by 4-DGIPPR.

    Policies 0/1 duel on one counter and 2/3 on another; a meta-counter
    duels the two pairs (incremented by misses in pair-{0,1} leaders,
    decremented by misses in pair-{2,3} leaders).  Followers run the winner
    of the winning pair.  Total state: three 11-bit counters per cache.
    """

    num_policies = 4

    def __init__(
        self,
        num_sets: int,
        leaders_per_policy: Optional[int] = None,
        counter_bits: int = 11,
        seed: int = 0xDEAD,
    ):
        self.leaders = assign_leader_sets(
            num_sets, 4, leaders_per_policy, seed=seed
        )
        self.pair01 = SaturatingCounter(counter_bits)
        self.pair23 = SaturatingCounter(counter_bits)
        self.meta = SaturatingCounter(counter_bits)

    def leader_policy(self, set_index: int) -> int:
        return self.leaders[set_index]

    def record_miss(self, set_index: int) -> None:
        leader = self.leaders[set_index]
        if leader < 0:
            return
        if leader == 0:
            self.pair01.increment()
        elif leader == 1:
            self.pair01.decrement()
        elif leader == 2:
            self.pair23.increment()
        else:
            self.pair23.decrement()
        if leader in (0, 1):
            self.meta.increment()
        else:
            self.meta.decrement()

    def selected(self) -> int:
        if self.meta.value < 0:
            return 0 if self.pair01.value < 0 else 1
        return 2 if self.pair23.value < 0 else 3

    def policy_for_set(self, set_index: int) -> int:
        leader = self.leaders[set_index]
        return leader if leader >= 0 else self.selected()


class BracketSelector:
    """Generalized multi-set dueling for any power-of-two policy count.

    Extends the Loh tournament to ``P = 2**m`` policies with a full bracket
    of saturating counters: level 0 duels adjacent policies, level 1 duels
    adjacent pairs, and so on.  A leader miss updates the counter of its
    group at every level.  This exists for the paper's "beyond four vectors
    yields diminishing returns" ablation (Section 3.5); the paper itself
    stops at four.
    """

    def __init__(
        self,
        num_sets: int,
        num_policies: int,
        leaders_per_policy: Optional[int] = None,
        counter_bits: int = 11,
        seed: int = 0xDEAD,
    ):
        if num_policies < 2 or num_policies & (num_policies - 1):
            raise ValueError("BracketSelector needs a power-of-two policy count")
        self.num_policies = num_policies
        self.leaders = assign_leader_sets(
            num_sets, num_policies, leaders_per_policy, seed=seed
        )
        self.levels: List[List[SaturatingCounter]] = []
        groups = num_policies // 2
        while groups >= 1:
            self.levels.append([SaturatingCounter(counter_bits) for _ in range(groups)])
            groups //= 2

    def leader_policy(self, set_index: int) -> int:
        return self.leaders[set_index]

    def record_miss(self, set_index: int) -> None:
        leader = self.leaders[set_index]
        if leader < 0:
            return
        group = leader
        for counters in self.levels:
            if group & 1:
                counters[group >> 1].decrement()
            else:
                counters[group >> 1].increment()
            group >>= 1

    def selected(self) -> int:
        # Walk the bracket from the root down, picking the less-missing side.
        group = 0
        for counters in reversed(self.levels):
            group = (group << 1) | (0 if counters[group].value < 0 else 1)
        return group

    def policy_for_set(self, set_index: int) -> int:
        leader = self.leaders[set_index]
        return leader if leader >= 0 else self.selected()


def make_selector(
    num_sets: int,
    num_policies: int,
    leaders_per_policy: Optional[int] = None,
    counter_bits: int = 11,
    seed: int = 0xDEAD,
):
    """Build the appropriate selector for a power-of-two policy count.

    For a single policy a trivial constant selector is returned so that
    static GIPPR and dynamic DGIPPR share one code path.  Two and four
    policies use the paper's exact schemes; larger powers of two use the
    generalized bracket (ablation only).  ``leaders_per_policy=None``
    takes :func:`default_leaders_per_policy`, as every selector does.
    """
    if num_policies == 1:
        return _ConstantSelector()
    if num_policies == 2:
        return DuelSelector(num_sets, leaders_per_policy, counter_bits, seed)
    if num_policies == 4:
        return TournamentSelector(num_sets, leaders_per_policy, counter_bits, seed)
    return BracketSelector(
        num_sets, num_policies, leaders_per_policy, counter_bits, seed
    )


class _ConstantSelector:
    """Degenerate selector for the static single-vector case."""

    num_policies = 1

    def leader_policy(self, set_index: int) -> int:
        return -1

    def record_miss(self, set_index: int) -> None:
        pass

    def selected(self) -> int:
        return 0

    def policy_for_set(self, set_index: int) -> int:
        return 0
