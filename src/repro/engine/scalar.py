"""The scalar tree-PLRU IPV simulator: one lane, fed in batches.

:class:`ScalarStreamSimulator` is the one per-access PLRU-IPV loop.  The
GA's one-shot :func:`repro.ga.fitness.simulate_misses_plru_ipv` is a
single :meth:`~ScalarStreamSimulator.feed` over the whole trace, and the
serving front-end (:mod:`repro.serve`) feeds bounded batches forever,
carrying the cache state across them.

Per access it performs exactly the transitions of ``kernel="lut"``
(table lookups through :func:`repro.kernels.tables.resolve_kernel`) or,
for ``kernel="walk"`` and associativities without tables (k > 16), the
inlined Figure 5/7/9 bit-walk reference.  Miss counts and miss indices
are bit-identical between the two and to the columnar ``feed`` stream
over the same concatenated accesses — pinned by
``tests/engine/test_streaming_feed.py`` and the conformance cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.plru import is_power_of_two
from ..kernels.tables import resolve_kernel

__all__ = ["ScalarStreamSimulator"]


class ScalarStreamSimulator:
    """One IPV lane over one cache geometry, fed in batches.

    State (PLRU words and tag maps) persists across :meth:`feed` calls;
    :meth:`reset` returns to cold.  ``warmup`` is interpreted against the
    global stream position, so feeding a trace in any chunking yields the
    same measured misses as one cold pass over the whole trace.
    ``kernel`` is ``"auto"`` (tables when supported, else the walk),
    ``"lut"`` (demand tables) or ``"walk"``; :attr:`kernel` afterwards
    names the loop that runs (``"lut"`` or ``"walk"``).
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        entries: Sequence[int],
        warmup: int = 0,
        kernel: str = "auto",
    ):
        if not is_power_of_two(num_sets):
            raise ValueError(
                f"num_sets must be a power of two, got {num_sets}"
            )
        if not is_power_of_two(assoc):
            raise ValueError(f"assoc must be a power of two, got {assoc}")
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        self.num_sets = num_sets
        self.assoc = assoc
        self.entries = tuple(int(e) for e in entries)
        self.warmup = warmup
        # Raises ValueError for a malformed IPV in every kernel mode.
        self._lut = resolve_kernel(kernel, assoc, self.entries)
        self.kernel = "walk" if self._lut is None else "lut"
        self.reset()

    def reset(self) -> "ScalarStreamSimulator":
        """Return to cold state and stream position 0."""
        self._states: List[int] = [0] * self.num_sets
        self._tag_to_way: List[Dict[int, int]] = [
            dict() for _ in range(self.num_sets)
        ]
        self._way_to_tag: List[List[int]] = [
            [-1] * self.assoc for _ in range(self.num_sets)
        ]
        self.pos = 0
        self.misses = 0
        self.measured_misses = 0
        return self

    @property
    def accesses(self) -> int:
        """Whole-stream access count (the stream position)."""
        return self.pos

    @property
    def hits(self) -> int:
        """Whole-stream hit count (warmup included)."""
        return self.pos - self.misses

    @property
    def cold_fills(self) -> int:
        """Misses that filled an empty way: lines are never invalidated,
        so this is the number of resident lines."""
        return sum(map(len, self._tag_to_way))

    @property
    def evictions(self) -> int:
        """Whole-stream eviction count (misses minus cold fills)."""
        return self.misses - self.cold_fills

    def feed(
        self,
        addresses: Sequence[int],
        miss_indices: Optional[List[int]] = None,
    ) -> int:
        """Apply one batch; return its *measured* miss count.

        Addresses are non-negative ints; numpy arrays are converted once
        with ``tolist()`` (numpy scalars are several times slower than
        Python ints in these loops).  ``miss_indices``, when given,
        collects the global stream index of every measured miss.
        Summing the per-batch returns over a stream equals one cold
        ``feed`` of the concatenation.
        """
        tolist = getattr(addresses, "tolist", None)
        if tolist is not None:
            addresses = tolist()
        step = self._feed_walk if self._lut is None else self._feed_lut
        measured, warm = step(addresses, miss_indices)
        self.pos += len(addresses)
        self.misses += measured + warm
        self.measured_misses += measured
        return measured

    def _feed_lut(self, addresses, miss_indices) -> Tuple[int, int]:
        t = self._lut
        victim, hit, fill, shift = t.victim, t.hit, t.fill, t.log2k
        mask = self.num_sets - 1
        assoc = self.assoc
        states = self._states
        tag_to_way = self._tag_to_way
        way_to_tag = self._way_to_tag
        warmup = self.warmup
        measured = warm = 0
        for i, addr in enumerate(addresses, self.pos):
            si = addr & mask
            ways = tag_to_way[si]
            way = ways.get(addr)
            state = states[si]
            if way is None:
                if i >= warmup:
                    measured += 1
                    if miss_indices is not None:
                        miss_indices.append(i)
                else:
                    warm += 1
                tags = way_to_tag[si]
                if len(ways) < assoc:
                    way = len(ways)  # cold fill: ways fill in order
                else:
                    way = victim[state]
                    del ways[tags[way]]
                tags[way] = addr
                ways[addr] = way
                states[si] = fill[(state << shift) | way]
            else:
                states[si] = hit[(state << shift) | way]
        return measured, warm

    def _feed_walk(self, addresses, miss_indices) -> Tuple[int, int]:
        assoc = self.assoc
        promo = list(self.entries[:assoc])
        insert = self.entries[assoc]
        mask = self.num_sets - 1
        states = self._states
        tag_to_way = self._tag_to_way
        way_to_tag = self._way_to_tag
        warmup = self.warmup
        measured = warm = 0
        for i, addr in enumerate(addresses, self.pos):
            si = addr & mask
            ways = tag_to_way[si]
            state = states[si]
            way = ways.get(addr)
            if way is None:
                if i >= warmup:
                    measured += 1
                    if miss_indices is not None:
                        miss_indices.append(i)
                else:
                    warm += 1
                tags = way_to_tag[si]
                if len(ways) < assoc:
                    way = len(ways)  # cold fill: ways fill in order
                else:
                    # find_plru walk (Figure 5)
                    n = 1
                    while n < assoc:
                        n = (n << 1) | ((state >> (n - 1)) & 1)
                    way = n - assoc
                    del ways[tags[way]]
                tags[way] = addr
                ways[addr] = way
                new_pos = insert
            else:
                # position decode (Figure 7)
                q = assoc + way
                pos = 0
                b = 0
                while q > 1:
                    parent = q >> 1
                    bit = (state >> (parent - 1)) & 1
                    if not (q & 1):
                        bit ^= 1
                    pos |= bit << b
                    q = parent
                    b += 1
                new_pos = promo[pos]
            # set_position (Figure 9)
            q = assoc + way
            b = 0
            while q > 1:
                parent = q >> 1
                bit = (new_pos >> b) & 1
                if not (q & 1):
                    bit ^= 1
                pmask = 1 << (parent - 1)
                state = (state | pmask) if bit else (state & ~pmask)
                q = parent
                b += 1
            states[si] = state
        return measured, warm

    def totals(self) -> Dict[str, int]:
        """Whole-stream totals (CacheStats-comparable, fills == misses)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.misses,
            "cold_fills": self.cold_fills,
            "evictions": self.evictions,
            "measured_misses": self.measured_misses,
        }
