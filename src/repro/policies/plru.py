"""Tree-PLRU family: classic PLRU, GIPPR and dynamic DGIPPR.

This is the paper's main contribution (Section 3).  The three policies are
one mechanism: exactly ``k - 1`` plru bits per set — less than one bit per
block for a 16-way cache — and insertion/promotion vectors that map
re-references and insertions onto PseudoLRU recency-stack positions
through the Figure 9 ``set_position`` primitive.  With several vectors,
set-dueling picks the one the follower sets run (Section 3.5).

:class:`DGIPPRPolicy` is that mechanism, and the other two are it with one
vector:

* :class:`TreePLRUPolicy` — classic PLRU, the all-zeros vector: promote to
  PMRU, insert at PMRU (Figures 5 and 6).
* :class:`GIPPRPolicy` — a single evolved IPV (Section 3.4).
* :class:`DGIPPRPolicy` — set-dueling between 2 or 4 evolved IPVs while
  sharing one set of plru bits across vectors, exactly as the paper
  specifies.

A one-vector policy has a selector with no leaders and no counters, and
its hooks never consult it.

The hooks dispatch to the precompiled transition tables of
:mod:`repro.kernels` when available (``kernel="auto"``, the default):
victim selection and the composed hit/fill transitions become single
``array('H')`` lookups instead of ``log2(k)`` bit-walks.  ``kernel="walk"``
forces the reference walks (used by the equivalence tests); the two paths
are bit-identical.  The active mode is exposed as ``kernel_mode``
(``"lut"`` or ``"walk"``) for provenance.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.dueling import DuelSelector
from ..core.ipv import IPV, lru_ipv
from ..core.plru import find_plru, position, set_position
from ..kernels import resolve_kernel
from .base import AccessContext, ReplacementPolicy

__all__ = ["TreePLRUPolicy", "GIPPRPolicy", "DGIPPRPolicy"]


class DGIPPRPolicy(ReplacementPolicy):
    """Dynamic GIPPR: set-dueling between evolved IPVs (Section 3.5).

    With two vectors a single 11-bit PSEL counter duels them (2-DGIPPR);
    with four, Loh-style multi-set dueling uses three 11-bit counters
    (4-DGIPPR).  Only one array of plru bits is kept per set regardless of
    the vector count, matching the paper's hardware budget of 15 bits per
    16-way set plus 33 counter bits per cache.

    With the LUT kernel, one composed hit/fill table pair is compiled per
    duelled vector; the bounded compile cache in :mod:`repro.kernels` makes
    repeated duels of the same published vector sets free.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        ipvs: Sequence[IPV] = None,
        leaders_per_policy: int = None,
        counter_bits: int = 11,
        seed: int = 0xDEAD,
        kernel: str = "auto",
    ):
        super().__init__(num_sets, assoc)
        if ipvs is None:
            from ..core.vectors import DGIPPR4_WI_VECTORS

            ipvs = DGIPPR4_WI_VECTORS
        ipvs = list(ipvs)
        for ipv in ipvs:
            if ipv.k != assoc:
                raise ValueError(
                    f"IPV {ipv.name} is for {ipv.k}-way sets, cache is {assoc}-way"
                )
        self.ipvs = ipvs
        self.name = f"{len(ipvs)}-dgippr"
        self.selector = DuelSelector(
            num_sets, len(ipvs), leaders_per_policy, counter_bits, seed
        )
        # The hooks ask the selector only when there is something to duel.
        self._duel = self.selector if len(ipvs) > 1 else None
        self._promos = [ipv.entries[:assoc] for ipv in ipvs]
        self._inserts = [ipv.entries[assoc] for ipv in ipvs]
        self._state: List[int] = [0] * num_sets
        # All-or-nothing table compilation: one composed pair per vector.
        table_sets = [resolve_kernel(kernel, assoc, ipv.entries) for ipv in ipvs]
        if all(t is not None for t in table_sets):
            self._tables = table_sets[0]
            self._shift = table_sets[0].log2k
            self._victim_t = table_sets[0].victim
            self._pos_t = table_sets[0].pos
            self._hit_ts = [t.hit for t in table_sets]
            self._fill_ts = [t.fill for t in table_sets]
            self.kernel_mode = "lut"
        else:
            self._tables = None
            self.kernel_mode = "walk"

    def victim(self, set_index: int, ctx: AccessContext) -> int:
        if self._tables is not None:
            return self._victim_t[self._state[set_index]]
        return find_plru(self._state[set_index], self.assoc)

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        vector = 0
        if self._duel is not None:
            vector = self._duel.policy_for_set(set_index)
        states = self._state
        if self._tables is not None:
            states[set_index] = self._hit_ts[vector][
                (states[set_index] << self._shift) | way
            ]
            return
        state = states[set_index]
        pos = position(state, way, self.assoc)
        states[set_index] = set_position(
            state, way, self._promos[vector][pos], self.assoc
        )

    def on_miss(self, set_index: int, ctx: AccessContext) -> None:
        if self._duel is not None:
            self._duel.record_miss(set_index)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        vector = 0
        if self._duel is not None:
            vector = self._duel.policy_for_set(set_index)
        states = self._state
        if self._tables is not None:
            states[set_index] = self._fill_ts[vector][
                (states[set_index] << self._shift) | way
            ]
            return
        states[set_index] = set_position(
            states[set_index], way, self._inserts[vector], self.assoc
        )

    def active_ipv(self) -> IPV:
        """The vector the follower sets currently run (introspection)."""
        return self.ipvs[self.selector.selected()]

    def position_of(self, set_index: int, way: int) -> int:
        if self._tables is not None:
            return self._pos_t[(self._state[set_index] << self._shift) | way]
        return position(self._state[set_index], way, self.assoc)

    def state_bits_per_set(self) -> float:
        return self.assoc - 1

    def global_state_bits(self) -> int:
        # One 11-bit counter for 2 vectors, three for 4 (Section 3.6).
        return self.selector.state_bits()


class TreePLRUPolicy(DGIPPRPolicy):
    """Classic tree-based PseudoLRU (Section 3.1, Figures 5 and 6).

    Promotion and insertion both go to PMRU: the all-zeros vector, since
    ``promote`` is exactly ``set_position(state, way, 0)``.
    """

    def __init__(self, num_sets: int, assoc: int, kernel: str = "auto"):
        super().__init__(num_sets, assoc, [lru_ipv(assoc)], kernel=kernel)
        self.name = "plru"


class GIPPRPolicy(DGIPPRPolicy):
    """Genetic Insertion and Promotion for PseudoLRU Replacement (§3.4).

    A block re-referenced at PLRU position ``i`` has its position set to
    ``V[i]``; an incoming block's position is set to ``V[k]``.  Because
    ``set_position`` rewrites the leaf-to-root path bits, other blocks'
    positions shift in a more drastic way than under true LRU — the reason
    the paper evolves PLRU-specific vectors.
    """

    def __init__(
        self, num_sets: int, assoc: int, ipv: IPV = None, kernel: str = "auto"
    ):
        if ipv is None:
            from ..core.vectors import GIPPR_WI_VECTOR

            ipv = GIPPR_WI_VECTOR
        super().__init__(num_sets, assoc, [ipv], kernel=kernel)
        self.name = "gippr"
        self.ipv = ipv
