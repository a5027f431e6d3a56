"""True-LRU recency stack with IPV-driven insertion and promotion.

This is the Section 2 substrate: each k-way set keeps an explicit recency
stack (position 0 = MRU .. position k-1 = LRU) and an IPV decides where
re-referenced and incoming blocks land.  Bystander blocks shift by one
position toward the vacated slot, exactly as Section 2.3 specifies:

* ``V[i] < i``  — blocks at positions ``V[i] .. i-1`` shift *down* one;
* ``V[i] > i``  — blocks at positions ``i+1 .. V[i]`` shift *up* one.

With ``V = [0]*(k+1)`` this is precisely classic LRU.
"""

from __future__ import annotations

from typing import List

from .ipv import IPV

__all__ = ["RecencyStack"]


class RecencyStack:
    """Recency stack for one cache set, storing way numbers by position.

    ``stack[p]`` is the way occupying position ``p``; a way's position is
    ``stack.index(way)``.  A move takes the way out of the list and inserts
    it at its target, which shifts the bystanders by one position exactly
    as Section 2.3 specifies.  Ways start out in identity order, which
    matches a cold set being filled way 0 first.
    """

    __slots__ = ("k", "ipv", "stack")

    def __init__(self, k: int, ipv: IPV):
        if ipv.k != k:
            raise ValueError(f"IPV is for {ipv.k}-way sets, stack is {k}-way")
        self.k = k
        self.ipv = ipv
        self.stack: List[int] = list(range(k))

    # ------------------------------------------------------------------
    # Policy operations.
    # ------------------------------------------------------------------
    def victim(self) -> int:
        """Way to evict: the block in the LRU position ``k - 1``."""
        return self.stack[-1]

    def touch(self, way: int) -> None:
        """Re-reference ``way``: promote it to ``V[position(way)]``."""
        stack = self.stack
        src = stack.index(way)
        dst = self.ipv.entries[src]
        if dst != src:
            del stack[src]
            stack.insert(dst, way)

    def insert(self, way: int) -> None:
        """Fill ``way`` with an incoming block.

        The incoming block conceptually replaces the victim at position
        ``k - 1`` and is then moved to the insertion position ``V[k]``
        (Section 2.1.2 / 2.3).  The caller must have placed the new block in
        the way previously occupied by :meth:`victim` (or any way, for cold
        fills — the way keeps its current position before the move).
        """
        stack = self.stack
        stack.remove(way)
        stack.insert(self.ipv.entries[self.k], way)

    def position_of(self, way: int) -> int:
        return self.stack.index(way)

    def place(self, way: int, pos: int) -> None:
        """Move ``way`` directly to ``pos``, bypassing the IPV.

        Exists for policies like DIP/BIP that choose insertion positions
        probabilistically rather than through a fixed vector.
        """
        if not 0 <= pos < self.k:
            raise ValueError(f"position {pos} out of range for {self.k}-way set")
        stack = self.stack
        stack.remove(way)
        stack.insert(pos, way)

    def set_ipv(self, ipv: IPV) -> None:
        """Switch the active IPV (used by set-dueling followers)."""
        if ipv.k != self.k:
            raise ValueError(f"IPV is for {ipv.k}-way sets, stack is {self.k}-way")
        self.ipv = ipv

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples).
    # ------------------------------------------------------------------
    def order(self) -> List[int]:
        """Ways ordered MRU-first."""
        return list(self.stack)

    def check_invariants(self) -> None:
        """Raise AssertionError unless the stack is a permutation of ways."""
        assert sorted(self.stack) == list(range(self.k)), self.stack

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecencyStack(k={self.k}, mru_first={self.stack})"
