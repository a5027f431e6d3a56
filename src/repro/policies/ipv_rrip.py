"""IPVs adapted to the RRIP substrate (paper future work, item 5).

Section 7: "it may be adapted to other LRU-like algorithms such as RRIP."

An RRPV is a coarse recency class, not a unique position, so the natural
adaptation is a *re-reference vector* (RRV) over RRPV values: for a b-bit
RRPV there are ``2**b`` classes and the vector has ``2**b + 1`` entries —
``R[v]`` is the new RRPV of a block hit at RRPV ``v`` and ``R[2**b]`` is
the insertion RRPV.  Classic policies are special cases:

* SRRIP-HP: ``R = [0, 0, 0, 0, 2]``
* "distant insertion" (BRRIP's common case): ``R = [0, 0, 0, 0, 3]``

:class:`DynamicIPVRRIPPolicy` set-duels several RRVs, mirroring DGIPPR's
construction on the cheaper-but-coarser RRIP state (2 bits/block versus
DGIPPR's <1, but no tree walk).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.dueling import DuelSelector
from .base import AccessContext
from .rrip import _RRIPBase

__all__ = ["rrv_srrip", "rrv_distant", "IPVRRIPPolicy", "DynamicIPVRRIPPolicy"]


def _validate_rrv(entries: Sequence[int], rrpv_bits: int) -> Tuple[int, ...]:
    entries = tuple(int(e) for e in entries)
    classes = 1 << rrpv_bits
    if len(entries) != classes + 1:
        raise ValueError(
            f"RRV for {rrpv_bits}-bit RRPVs needs {classes + 1} entries, "
            f"got {len(entries)}"
        )
    for i, e in enumerate(entries):
        if not 0 <= e < classes:
            raise ValueError(f"RRV entry R[{i}]={e} out of range 0..{classes - 1}")
    return entries


def rrv_srrip(rrpv_bits: int = 2) -> Tuple[int, ...]:
    """The RRV equivalent of SRRIP-HP: hits to 0, insert at max-1."""
    classes = 1 << rrpv_bits
    return tuple([0] * classes + [classes - 2])


def rrv_distant(rrpv_bits: int = 2) -> Tuple[int, ...]:
    """Hits to 0, insert at the distant RRPV (thrash-resistant)."""
    classes = 1 << rrpv_bits
    return tuple([0] * classes + [classes - 1])


class IPVRRIPPolicy(_RRIPBase):
    """A static re-reference vector on RRIP state."""

    name = "ipv-rrip"

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        rrv: Sequence[int] = None,
        rrpv_bits: int = 2,
    ):
        super().__init__(num_sets, assoc, rrpv_bits)
        if rrv is None:
            rrv = rrv_srrip(rrpv_bits)
        self.rrv = _validate_rrv(rrv, rrpv_bits)

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        rrpv = self._rrpv[set_index]
        rrpv[way] = self.rrv[rrpv[way]]

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._fill(set_index, way, self.rrv[-1])


class DynamicIPVRRIPPolicy(_RRIPBase):
    """Set-dueling between re-reference vectors (DGIPPR on RRIP state).

    With ``[rrv_srrip(), rrv_distant()]`` this is a deterministic cousin of
    DRRIP; evolved RRVs generalize it the way GIPPR generalizes PLRU.
    """

    name = "dipv-rrip"

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        rrvs: Sequence[Sequence[int]] = None,
        rrpv_bits: int = 2,
        leaders_per_policy: int = None,
        counter_bits: int = 11,
        seed: int = 0xD1CE,
    ):
        super().__init__(num_sets, assoc, rrpv_bits)
        if rrvs is None:
            rrvs = [rrv_srrip(rrpv_bits), rrv_distant(rrpv_bits)]
        self.rrvs: List[Tuple[int, ...]] = [
            _validate_rrv(rrv, rrpv_bits) for rrv in rrvs
        ]
        self.name = f"{len(self.rrvs)}-dipv-rrip"
        self.selector = DuelSelector(
            num_sets, len(self.rrvs), leaders_per_policy, counter_bits, seed
        )

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        rrv = self.rrvs[self.selector.policy_for_set(set_index)]
        rrpv = self._rrpv[set_index]
        rrpv[way] = rrv[rrpv[way]]

    def on_miss(self, set_index: int, ctx: AccessContext) -> None:
        self.selector.record_miss(set_index)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        rrv = self.rrvs[self.selector.policy_for_set(set_index)]
        self._fill(set_index, way, rrv[-1])

    def active_rrv(self) -> Tuple[int, ...]:
        return self.rrvs[self.selector.selected()]

    def global_state_bits(self) -> int:
        return self.selector.state_bits()
