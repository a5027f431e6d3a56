"""Dynamic Insertion Policy (Qureshi et al., ISCA 2007).

DIP is the intellectual ancestor of the paper's approach (Section 6.1): it
duels classic MRU insertion against the Bimodal Insertion Policy (BIP),
which usually inserts at LRU and only rarely at MRU.  Promotion is always to
MRU; only the *insertion* position adapts.  DIP sits on top of full LRU
stacks, so it pays LRU's ``k log2 k`` bits per set — the storage cost the
paper's PLRU-based DGIPPR eliminates.

LIP (LRU Insertion Policy) is also exposed as a static policy.
"""

from __future__ import annotations

import math

from ..core.dueling import DuelSelector
from ..core.ipv import lip_ipv, lru_ipv
from ..core.recency import RecencyStack
from .base import AccessContext, ReplacementPolicy
from .lru import IPVLRUPolicy

__all__ = ["LIPPolicy", "BIPPolicy", "DIPPolicy", "BIP_MRU_INTERVAL"]

#: BIP inserts at MRU once every 32 fills (the 1/32 "bimodal throttle").
BIP_MRU_INTERVAL = 32


class LIPPolicy(IPVLRUPolicy):
    """LRU Insertion Policy: insert at LRU, promote to MRU on hit."""

    name = "lip"

    def __init__(self, num_sets: int, assoc: int):
        super().__init__(num_sets, assoc, lip_ipv(assoc))


class BIPPolicy(ReplacementPolicy):
    """Bimodal Insertion Policy: insert at LRU, rarely at MRU."""

    name = "bip"

    def __init__(self, num_sets: int, assoc: int):
        super().__init__(num_sets, assoc)
        ipv = lru_ipv(assoc)
        self._stacks = [RecencyStack(assoc, ipv) for _ in range(num_sets)]
        self._fill_count = 0

    def victim(self, set_index: int, ctx: AccessContext) -> int:
        return self._stacks[set_index].victim()

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._stacks[set_index].touch(way)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._fill_count += 1
        if self._fill_count % BIP_MRU_INTERVAL == 0:
            self._stacks[set_index].place(way, 0)
        else:
            self._stacks[set_index].place(way, self.assoc - 1)

    def state_bits_per_set(self) -> float:
        return self.assoc * math.log2(self.assoc)


class DIPPolicy(ReplacementPolicy):
    """DIP: set-dueling between MRU insertion (LRU) and BIP."""

    name = "dip"

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        leaders_per_policy: int = None,
        psel_bits: int = 10,
        seed: int = 0xD1B,
    ):
        super().__init__(num_sets, assoc)
        ipv = lru_ipv(assoc)
        self._stacks = [RecencyStack(assoc, ipv) for _ in range(num_sets)]
        # Policy 0 = classic MRU insertion, policy 1 = BIP.
        self.selector = DuelSelector(
            num_sets, 2, leaders_per_policy, psel_bits, seed
        )
        self._fill_count = 0

    def victim(self, set_index: int, ctx: AccessContext) -> int:
        return self._stacks[set_index].victim()

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._stacks[set_index].touch(way)

    def on_miss(self, set_index: int, ctx: AccessContext) -> None:
        self.selector.record_miss(set_index)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self.selector.policy_for_set(set_index) == 0:
            self._stacks[set_index].place(way, 0)
            return
        self._fill_count += 1
        if self._fill_count % BIP_MRU_INTERVAL == 0:
            self._stacks[set_index].place(way, 0)
        else:
            self._stacks[set_index].place(way, self.assoc - 1)

    def state_bits_per_set(self) -> float:
        return self.assoc * math.log2(self.assoc)

    def global_state_bits(self) -> int:
        return self.selector.state_bits()
