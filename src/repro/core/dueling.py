"""Set-dueling machinery (Section 2.3 background, Section 3.5 usage).

Set-dueling (Qureshi et al.) dedicates a few *leader sets* to each candidate
policy and lets saturating counters track which leader group misses less;
all remaining *follower sets* adopt the winning policy.

One selector, :class:`DuelSelector`, duels any power-of-two number of
policies as a bracket of counters:

* one policy: no leaders and no counters; every set runs policy 0 (GIPPR
  and classic PLRU are DGIPPR with one vector);
* two policies: one PSEL counter (DIP, DRRIP and 2-DGIPPR; the paper uses
  a single 11-bit counter);
* four policies: Loh's multi-set dueling, two pair counters plus a
  meta-counter (4-DGIPPR; three 11-bit counters in all);
* eight or more: the same bracket one level deeper per doubling, for the
  paper's "more vectors give diminishing returns" ablation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

__all__ = ["SaturatingCounter", "assign_leader_sets", "DuelSelector"]


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


#: The paper's counter names; larger brackets name theirs by level and group.
_COUNTER_NAMES = {2: ["psel"], 4: ["pair01", "pair23", "meta"]}


class DuelSelector:
    """Set-dueling among ``num_policies`` policies, a power of two.

    The counters form a bracket.  Level 0 duels adjacent policies (0 with
    1, 2 with 3, ...), level 1 duels adjacent pairs, and so on up to one
    root counter.  A miss in a leader set of policy ``p`` moves the one
    counter of ``p``'s group at every level: up when ``p`` sits in the
    group's first half, down when in its second.  Followers run the policy
    reached by walking down from the root and taking the first half while
    a counter is negative (it has missed less), else the second.  With two
    policies that is the PSEL rule of Qureshi et al.; with four it is
    Loh's pair and meta counters.

    :attr:`counters` names every counter once, level by level: ``psel``
    for two policies, ``pair01``, ``pair23`` and ``meta`` for four,
    ``level<l>_<g>`` otherwise.  Counters move only through
    :meth:`record_miss`, which keeps the followers' pick cached and walks
    the bracket again only when a counter on the missing leader's path
    changes sign.
    """

    def __init__(
        self,
        num_sets: int,
        num_policies: int = 2,
        leaders_per_policy: Optional[int] = None,
        counter_bits: int = 11,
        seed: int = 0xDEAD,
    ):
        if num_policies < 1 or num_policies & (num_policies - 1):
            raise ValueError(
                f"set-dueling needs a power-of-two policy count, "
                f"got {num_policies}"
            )
        self.num_policies = num_policies
        # One policy has nothing to duel: no leaders, every set follows.
        self.leaders = assign_leader_sets(
            num_sets, num_policies, leaders_per_policy, seed=seed
        ) if num_policies > 1 else [-1] * num_sets
        self._levels: List[List[SaturatingCounter]] = []
        groups = num_policies // 2
        while groups:
            self._levels.append(
                [SaturatingCounter(counter_bits) for _ in range(groups)]
            )
            groups //= 2
        names = _COUNTER_NAMES.get(num_policies) or [
            f"level{level}_{group}"
            for level, counters in enumerate(self._levels)
            for group in range(len(counters))
        ]
        self.counters: Dict[str, SaturatingCounter] = dict(
            zip(names, (c for counters in self._levels for c in counters))
        )
        # Per leader policy: (counter, counts up?) at every level.
        self._paths = [
            tuple(
                (counters[policy >> (level + 1)], not policy >> level & 1)
                for level, counters in enumerate(self._levels)
            )
            for policy in range(num_policies)
        ]
        self._pick = self._walk()

    def _walk(self) -> int:
        pick = 0
        for counters in reversed(self._levels):
            pick = 2 * pick + (counters[pick].value >= 0)
        return pick

    def leader_policy(self, set_index: int) -> int:
        """Leader policy for a set, or -1 when the set is a follower."""
        return self.leaders[set_index]

    def record_miss(self, set_index: int) -> None:
        """Count a miss in ``set_index``; follower misses change nothing."""
        leader = self.leaders[set_index]
        if leader < 0:
            return
        # SaturatingCounter's steps, inlined: the engines call this once
        # per leader miss.  Only a sign change can move the pick.
        flipped = False
        for counter, up in self._paths[leader]:
            value = counter.value
            if up:
                if value < counter.hi:
                    counter.value = value + 1
                    if value == -1:
                        flipped = True
            elif value > counter.lo:
                counter.value = value - 1
                if not value:
                    flipped = True
        if flipped:
            self._pick = self._walk()

    def selected(self) -> int:
        """Policy currently followed by the follower sets."""
        return self._pick

    def policy_for_set(self, set_index: int) -> int:
        leader = self.leaders[set_index]
        return leader if leader >= 0 else self._pick

    def state_bits(self) -> int:
        """Counter bits stored once per cache (Section 3.6)."""
        return sum(c.bits for c in self.counters.values())
