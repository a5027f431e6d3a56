"""Re-Reference Interval Prediction policies (Jaleel et al., ISCA 2010).

The paper's headline comparison point (Section 4.7): DRRIP set-duels between
SRRIP and BRRIP and was, at publication time, the most storage-efficient
high-performance replacement scheme — 2 bits per block, which DGIPPR halves.

* SRRIP-HP: insert with RRPV = max-1 ("long re-reference"), reset RRPV to 0
  on hit, evict a block with RRPV = max (aging all blocks until one exists).
* BRRIP: like SRRIP but usually inserts at max ("distant"), inserting long
  only with probability 1/32.
* DRRIP: set-duels SRRIP vs BRRIP leader sets with a 10-bit PSEL;
  :func:`simulate_drrip` runs a whole DRRIP trace in one loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.dueling import DuelSelector
from .base import AccessContext, ReplacementPolicy

__all__ = ["SRRIPPolicy", "BRRIPPolicy", "DRRIPPolicy", "simulate_drrip"]

#: BRRIP inserts with "long" (max-1) RRPV once every 32 fills.
BRRIP_LONG_INTERVAL = 32


class _RRIPBase(ReplacementPolicy):
    """Shared RRPV array and victim-selection logic.

    ``hit_priority`` selects between the RRIP paper's two hit promotions:
    HP resets a hit block's RRPV to 0 (near-immediate), FP (frequency
    priority) only decrements it — blocks must earn protection through
    repeated hits.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        rrpv_bits: int = 2,
        hit_priority: bool = True,
    ):
        super().__init__(num_sets, assoc)
        if rrpv_bits < 1:
            raise ValueError("rrpv_bits must be >= 1")
        self.rrpv_bits = rrpv_bits
        self.hit_priority = hit_priority
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._rrpv: List[List[int]] = [
            [self.max_rrpv] * assoc for _ in range(num_sets)
        ]

    def victim(self, set_index: int, ctx: AccessContext) -> int:
        rrpv = self._rrpv[set_index]
        max_rrpv = self.max_rrpv
        while True:
            for way, value in enumerate(rrpv):
                if value == max_rrpv:
                    return way
            # Age everyone until a distant block appears.
            for way in range(self.assoc):
                rrpv[way] += 1

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self.hit_priority:
            # HP: promote to near-immediate re-reference.
            self._rrpv[set_index][way] = 0
        else:
            # FP: step one class closer per hit.
            rrpv = self._rrpv[set_index]
            if rrpv[way] > 0:
                rrpv[way] -= 1

    def _fill(self, set_index: int, way: int, insert_rrpv: int) -> None:
        self._rrpv[set_index][way] = insert_rrpv

    def rrpv_of(self, set_index: int, way: int) -> int:
        return self._rrpv[set_index][way]

    def state_bits_per_set(self) -> float:
        return self.rrpv_bits * self.assoc


class SRRIPPolicy(_RRIPBase):
    """Static RRIP with hit priority: insert at max-1."""

    name = "srrip"

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._fill(set_index, way, self.max_rrpv - 1)


class BRRIPPolicy(_RRIPBase):
    """Bimodal RRIP: insert distant, occasionally long.

    A deterministic modulo counter stands in for the low-probability coin,
    which keeps runs reproducible (the common hardware implementation also
    uses a simple counter).
    """

    name = "brrip"

    def __init__(self, num_sets: int, assoc: int, rrpv_bits: int = 2):
        super().__init__(num_sets, assoc, rrpv_bits)
        self._fill_count = 0

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._fill_count += 1
        if self._fill_count % BRRIP_LONG_INTERVAL == 0:
            self._fill(set_index, way, self.max_rrpv - 1)
        else:
            self._fill(set_index, way, self.max_rrpv)


class DRRIPPolicy(_RRIPBase):
    """Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion."""

    name = "drrip"

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        rrpv_bits: int = 2,
        leaders_per_policy: int = None,
        psel_bits: int = 10,
        seed: int = 0xD881,
    ):
        if rrpv_bits > 8:  # simulate_drrip keeps RRPVs in a bytearray
            raise ValueError("DRRIP RRPVs have at most 8 bits")
        super().__init__(num_sets, assoc, rrpv_bits)
        # Policy 0 = SRRIP, policy 1 = BRRIP.
        self.selector = DuelSelector(
            num_sets, 2, leaders_per_policy, psel_bits, seed
        )
        self._fill_count = 0

    def on_miss(self, set_index: int, ctx: AccessContext) -> None:
        self.selector.record_miss(set_index)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self.selector.policy_for_set(set_index) == 0:
            self._fill(set_index, way, self.max_rrpv - 1)
        else:
            self._fill_count += 1
            if self._fill_count % BRRIP_LONG_INTERVAL == 0:
                self._fill(set_index, way, self.max_rrpv - 1)
            else:
                self._fill(set_index, way, self.max_rrpv)

    def global_state_bits(self) -> int:
        return self.selector.state_bits()


def simulate_drrip(
    policy: DRRIPPolicy,
    addresses: Sequence[int],
    warmup: int,
    miss_indices: Optional[List[int]] = None,
) -> int:
    """Measured misses of a cold DRRIP cache over block ``addresses``.

    One pass in access order makes the transitions of ``policy`` behind
    ``SetAssociativeCache.access`` (``block_size=1``).  Misses at indices
    ``>= warmup`` are counted, and appended to ``miss_indices`` if given.
    Per-set RRPVs stay untouched; ``policy.selector`` and ``_fill_count``
    end where the per-access run leaves them.
    """
    if hasattr(addresses, "tolist"):
        addresses = addresses.tolist()
    num_sets, assoc, distant = policy.num_sets, policy.assoc, policy.max_rrpv
    mask, long = num_sets - 1, distant - 1
    # A set's RRPVs are one bytearray: ``find`` is a C scan, and aging
    # every way by ``d`` is one ``translate`` through ``aging[d]``.
    aging = [bytes(range(d, 256)) + bytes(d) for d in range(distant + 1)]
    rrpvs = [bytearray([distant]) * assoc for _ in range(num_sets)]
    tag_to_way: List[dict] = [{} for _ in range(num_sets)]
    way_to_tag = [[0] * assoc for _ in range(num_sets)]
    roles = [policy.selector.leader_policy(s) for s in range(num_sets)]
    record, selected = policy.selector.record_miss, policy.selector.selected
    pick, fill_count, misses = selected(), policy._fill_count, 0
    for i, addr in enumerate(addresses):
        si = addr & mask
        ways = tag_to_way[si]
        way = ways.get(addr)
        if way is not None:
            rrpvs[si][way] = 0  # hit priority
            continue
        if i >= warmup:
            misses += 1
            if miss_indices is not None:
                miss_indices.append(i)
        role = roles[si]
        if role < 0:
            role = pick  # PSEL moves only on leader misses
        else:
            record(si)  # on_miss, before this miss's fill
            pick = selected()
        rrpv, tags = rrpvs[si], way_to_tag[si]
        if len(ways) < assoc:
            way = len(ways)
        else:
            way = rrpv.find(distant)
            if way < 0:  # aging stops at the first way of the highest RRPV
                oldest = max(rrpv)
                way = rrpv.find(oldest)
                rrpvs[si] = rrpv = rrpv.translate(aging[distant - oldest])
            del ways[tags[way]]
        tags[way] = addr
        ways[addr] = way
        if role:  # BRRIP: distant, but long every 32nd fill
            fill_count += 1
        rrpv[way] = (
            distant if role and fill_count % BRRIP_LONG_INTERVAL else long
        )
    policy._fill_count = fill_count
    return misses
