"""Reference oracles for differential conformance testing.

Two obviously-correct cache models, each mirroring the production
:class:`repro.cache.cache.SetAssociativeCache` *interface contract* (same
set indexing, same cold-fill order, write-allocate, no bypass) but driven
by deliberately naive replacement state:

:class:`LRUStackOracle`
    An explicit recency stack per set — a plain Python list of ways,
    MRU-first.  IPV promotion/insertion is implemented as ``list.pop`` +
    ``list.insert``, which *is* the Section 2.3 shift semantics by
    construction.  This is the ground truth for ``lru``, ``ipv-lru`` and
    ``giplr``.

:class:`PLRUPositionsOracle`
    The positions-decoded model for tree PLRU: it keeps the packed plru
    bits but drives every decision through the *full* position permutation
    (:func:`repro.core.plru.all_positions`), never through the Figure 5
    victim walk or any composed lookup table.  The victim is "the way whose
    decoded position is ``k - 1``", a hit at decoded position ``i`` applies
    ``set_position(state, way, V[i])``, and an insertion applies
    ``set_position(state, way, V[k])`` — Section 3 read literally.  This is
    the ground truth for ``plru``, ``gippr`` and (with a mirrored
    set-dueling selector) ``dgippr``.

Both oracles check their own internal invariants on every access and
expose ``positions(set_index)`` so the differential runner can compare the
*exact* recency permutation against the production policy, not just miss
counts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.dueling import DuelSelector
from ..core.ipv import IPV, lru_ipv
from ..core.plru import all_positions, set_position
from ..core.vectors import DGIPPR4_WI_VECTORS, GIPPR_WI_VECTOR

__all__ = [
    "OracleCache",
    "LRUStackOracle",
    "PLRUPositionsOracle",
    "OracleDivergenceError",
]


class OracleDivergenceError(AssertionError):
    """The oracle's own invariants broke — a bug in the oracle itself."""


class OracleCache:
    """Shared tag/fill machinery for the reference models.

    Mirrors the production cache exactly where the contract is fixed:
    block-address inputs (``block_size=1``), ``set = block & (num_sets-1)``,
    ``tag = block >> log2(num_sets)``, cold fills take the lowest invalid
    way, full-set misses evict the policy victim, and every miss allocates
    (write-allocate, no bypass).
    """

    def __init__(self, num_sets: int, assoc: int):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if assoc < 1:
            raise ValueError(f"assoc must be positive, got {assoc}")
        self.num_sets = num_sets
        self.assoc = assoc
        self._index_bits = num_sets.bit_length() - 1
        self._tags: List[List[Optional[int]]] = [
            [None] * assoc for _ in range(num_sets)
        ]
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- hooks implemented by concrete oracles -------------------------
    def _victim(self, set_index: int) -> int:
        raise NotImplementedError

    def _on_hit(self, set_index: int, way: int) -> None:
        raise NotImplementedError

    def _on_miss(self, set_index: int) -> None:
        """Called for every miss, before the victim is chosen."""

    def _on_fill(self, set_index: int, way: int) -> None:
        raise NotImplementedError

    def positions(self, set_index: int) -> Optional[List[int]]:
        """Recency position of every way, or ``None`` if undefined."""
        return None

    # -- the access path ------------------------------------------------
    def locate(self, block: int) -> Tuple[int, int]:
        return block & (self.num_sets - 1), block >> self._index_bits

    def access(self, block: int) -> Tuple[bool, Optional[int]]:
        """One access; returns ``(hit, evicted_block_or_None)``."""
        set_index, tag = self.locate(block)
        tags = self._tags[set_index]
        self.accesses += 1
        if tag in tags:
            self.hits += 1
            way = tags.index(tag)
            self._on_hit(set_index, way)
            self._check(set_index)
            return True, None
        self.misses += 1
        self._on_miss(set_index)
        evicted = None
        if None in tags:
            way = tags.index(None)
        else:
            way = self._victim(set_index)
            if not 0 <= way < self.assoc:
                raise OracleDivergenceError(
                    f"oracle victim way {way} out of range"
                )
            self.evictions += 1
            evicted = (tags[way] << self._index_bits) | set_index
        tags[way] = tag
        self._on_fill(set_index, way)
        self._check(set_index)
        return False, evicted

    def run(self, accesses: Sequence[int]) -> int:
        """Run a whole stream; returns the miss count."""
        misses = 0
        for block in accesses:
            hit, _ = self.access(block)
            misses += not hit
        return misses

    def resident_blocks(self, set_index: int) -> set:
        """Set of resident tags in a set (matches ``cache._way_of`` keys)."""
        return {t for t in self._tags[set_index] if t is not None}

    def _check(self, set_index: int) -> None:
        positions = self.positions(set_index)
        if positions is not None and sorted(positions) != list(
            range(self.assoc)
        ):
            raise OracleDivergenceError(
                f"oracle positions not a permutation in set {set_index}: "
                f"{positions}"
            )


class LRUStackOracle(OracleCache):
    """Explicit recency-stack model for true-LRU IPV policies.

    ``order[set]`` lists ways MRU-first; moving a way from stack position
    ``src`` to ``dst`` is ``order.pop(src)`` followed by
    ``order.insert(dst, way)``, which shifts the bystanders by exactly one
    position in the direction Section 2.3 specifies — no index arithmetic
    to get wrong.
    """

    def __init__(self, num_sets: int, assoc: int, ipv: Optional[IPV] = None):
        super().__init__(num_sets, assoc)
        ipv = ipv if ipv is not None else lru_ipv(assoc)
        if ipv.k != assoc:
            raise ValueError(f"IPV is for {ipv.k}-way sets, oracle is {assoc}-way")
        self.ipv = ipv
        # Identity order matches a cold set filled way 0 first, exactly the
        # production RecencyStack initial state.
        self._order: List[List[int]] = [
            list(range(assoc)) for _ in range(num_sets)
        ]

    def _victim(self, set_index: int) -> int:
        return self._order[set_index][-1]

    def _move(self, set_index: int, way: int, dst: int) -> None:
        order = self._order[set_index]
        order.pop(order.index(way))
        order.insert(dst, way)

    def _on_hit(self, set_index: int, way: int) -> None:
        src = self._order[set_index].index(way)
        self._move(set_index, way, self.ipv.promotion(src))

    def _on_fill(self, set_index: int, way: int) -> None:
        self._move(set_index, way, self.ipv.insertion)

    def positions(self, set_index: int) -> List[int]:
        order = self._order[set_index]
        positions = [0] * self.assoc
        for pos, way in enumerate(order):
            positions[way] = pos
        return positions


class PLRUPositionsOracle(OracleCache):
    """Positions-decoded tree-PLRU model (classic PLRU, GIPPR, DGIPPR).

    Every decision goes through the full decoded permutation: the victim is
    found by scanning :func:`all_positions` for position ``k - 1`` (cross-
    checking Figure 7 against the production Figure 5 walk), and every
    transition is a literal Figure 9 ``set_position``.

    For DGIPPR pass several ``ipvs`` plus the selector parameters used by
    the production policy; the oracle then maintains its *own* mirrored
    set-dueling selector, updated in the production hook order (PSEL on
    every miss, vector choice resolved at hit/fill time).
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        ipvs: Optional[Sequence[IPV]] = None,
        leaders_per_policy: Optional[int] = None,
        counter_bits: int = 11,
        seed: int = 0xDEAD,
    ):
        super().__init__(num_sets, assoc)
        if ipvs is None:
            ipvs = [lru_ipv(assoc)]  # classic PLRU: the all-zeros vector
        ipvs = list(ipvs)
        for ipv in ipvs:
            if ipv.k != assoc:
                raise ValueError(
                    f"IPV {ipv.name} is for {ipv.k}-way sets, "
                    f"oracle is {assoc}-way"
                )
        self.ipvs = ipvs
        self.selector = DuelSelector(
            num_sets, len(ipvs), leaders_per_policy, counter_bits, seed
        )
        self._state: List[int] = [0] * num_sets

    @classmethod
    def for_gippr(
        cls, num_sets: int, assoc: int, ipv: Optional[IPV] = None
    ) -> "PLRUPositionsOracle":
        ipv = ipv if ipv is not None else GIPPR_WI_VECTOR
        return cls(num_sets, assoc, [ipv])

    @classmethod
    def for_dgippr(
        cls,
        num_sets: int,
        assoc: int,
        ipvs: Optional[Sequence[IPV]] = None,
        **selector_kwargs,
    ) -> "PLRUPositionsOracle":
        ipvs = list(ipvs) if ipvs is not None else list(DGIPPR4_WI_VECTORS)
        return cls(num_sets, assoc, ipvs, **selector_kwargs)

    def _active_ipv(self, set_index: int) -> IPV:
        return self.ipvs[self.selector.policy_for_set(set_index)]

    def _victim(self, set_index: int) -> int:
        positions = all_positions(self._state[set_index], self.assoc)
        return positions.index(self.assoc - 1)

    def _on_hit(self, set_index: int, way: int) -> None:
        state = self._state[set_index]
        pos = all_positions(state, self.assoc)[way]
        target = self._active_ipv(set_index).promotion(pos)
        self._state[set_index] = set_position(state, way, target, self.assoc)

    def _on_miss(self, set_index: int) -> None:
        self.selector.record_miss(set_index)

    def _on_fill(self, set_index: int, way: int) -> None:
        ipv = self._active_ipv(set_index)
        self._state[set_index] = set_position(
            self._state[set_index], way, ipv.insertion, self.assoc
        )

    def positions(self, set_index: int) -> List[int]:
        return all_positions(self._state[set_index], self.assoc)
