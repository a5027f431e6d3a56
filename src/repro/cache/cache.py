"""Set-associative cache model.

The cache owns tags, validity and dirty bits; replacement decisions are
delegated to a :class:`~repro.policies.base.ReplacementPolicy`.  Addresses
are byte addresses by default; pass ``block_size=1`` to feed pre-blocked
trace addresses directly (the usual mode for LLC trace experiments, matching
the paper's trace-driven fitness simulator).

Observability: :meth:`SetAssociativeCache.attach_tracer` attaches a
:class:`repro.obs.tracer.Tracer`; the traced access path emits
hit/promotion/miss/eviction/insertion/bypass/duel-flip events with recency
positions before/after and the set-dueling selection.  With no tracer
attached the hot path pays a single ``is not None`` test (budget enforced
by :mod:`repro.obs.overhead` and ``make smoke-obs``).
"""

from __future__ import annotations

from typing import Optional

from ..policies.base import AccessContext, ReplacementPolicy
from .stats import CacheStats

__all__ = ["SetAssociativeCache"]


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class SetAssociativeCache:
    """A single cache level driven by a replacement policy.

    Parameters
    ----------
    num_sets, assoc:
        Geometry; both must be powers of two (the paper's LLC is 4096x16).
    policy:
        The replacement policy instance; its geometry must match.
    block_size:
        Bytes per block; 64 in the paper.  Use 1 for block-address traces.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        policy: ReplacementPolicy,
        block_size: int = 64,
        name: str = "cache",
    ):
        if not _is_power_of_two(num_sets):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if not _is_power_of_two(block_size):
            raise ValueError(f"block_size must be a power of two, got {block_size}")
        if policy.num_sets != num_sets or policy.assoc != assoc:
            raise ValueError(
                f"policy geometry {policy.num_sets}x{policy.assoc} does not "
                f"match cache geometry {num_sets}x{assoc}"
            )
        self.num_sets = num_sets
        self.assoc = assoc
        self.policy = policy
        self.block_size = block_size
        self.name = name
        self._offset_bits = block_size.bit_length() - 1
        self._index_bits = num_sets.bit_length() - 1
        self._index_mask = num_sets - 1
        # tags[s][w] is the tag in way w of set s, or None when invalid.
        self._tags = [[None] * assoc for _ in range(num_sets)]
        self._dirty = [[False] * assoc for _ in range(num_sets)]
        # way_of[s] maps tag -> way for O(1) lookup.
        self._way_of = [dict() for _ in range(num_sets)]
        # fill_count[s] counts valid ways in set s: the miss path only probes
        # ``tags.index(None)`` while the set is still filling; once the count
        # reaches assoc every miss goes straight to the victim/bypass branch
        # (invalidate() decrements, so holes re-enable the probe).
        self._fill_count = [0] * num_sets
        self.stats = CacheStats()
        self._ctx = AccessContext()
        # Observability (attach_tracer); None keeps the hot path untouched
        # beyond a single identity test per access.
        self._tracer = None
        self._position_of = None
        self._selector = None

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer):
        """Route this cache's accesses through ``tracer`` (obs layer).

        Returns the tracer for chaining.  Policy introspection handles —
        ``position_of`` (recency positions for the position-before/after
        fields) and ``selector`` (set-dueling state for duel-flip and PSEL
        events) — are resolved once here, never on the hot path.  A
        selector over one policy duels nothing, so its events name no
        policy, as for a policy without a selector.
        """
        self._tracer = tracer
        self._position_of = getattr(self.policy, "position_of", None)
        selector = getattr(self.policy, "selector", None)
        if selector is not None and selector.num_policies < 2:
            selector = None
        self._selector = selector
        return tracer

    def detach_tracer(self):
        """Stop tracing; returns the previously attached tracer (or None)."""
        tracer, self._tracer = self._tracer, None
        return tracer

    # ------------------------------------------------------------------
    # Geometry helpers.
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.assoc * self.block_size

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.assoc

    def locate(self, address: int):
        """Split an address into (set index, tag)."""
        block = address >> self._offset_bits
        return block & self._index_mask, block >> self._index_bits

    # ------------------------------------------------------------------
    # The access path.
    # ------------------------------------------------------------------
    def access(
        self,
        address: int,
        pc: int = 0,
        is_write: bool = False,
        next_use: Optional[int] = None,
    ) -> bool:
        """Perform one access; returns True on hit.

        On a miss the block is always allocated (write-allocate); the paper's
        policies (PDP without bypass included) never bypass the cache.
        """
        if self._tracer is not None:
            return self._traced_access(address, pc, is_write, next_use)
        block = address >> self._offset_bits
        set_index = block & self._index_mask
        tag = block >> self._index_bits
        ctx = self._ctx
        ctx.pc = pc
        ctx.is_write = is_write
        ctx.next_use = next_use
        ctx.access_index += 1
        ctx.block = block

        stats = self.stats
        stats.accesses += 1
        way_of = self._way_of[set_index]
        way = way_of.get(tag)
        if way is not None:
            stats.hits += 1
            if is_write:
                self._dirty[set_index][way] = True
            self.policy.on_hit(set_index, way, ctx)
            return True

        stats.misses += 1
        self.policy.on_miss(set_index, ctx)
        tags = self._tags[set_index]
        if self._fill_count[set_index] < self.assoc:
            way = tags.index(None)
            self._fill_count[set_index] += 1
        else:
            if self.policy.should_bypass(set_index, ctx):
                stats.bypasses += 1
                return False
            way = self.policy.victim(set_index, ctx)
            if not 0 <= way < self.assoc:
                raise RuntimeError(
                    f"{self.policy.name} returned invalid victim way {way}"
                )
            self.policy.on_evict(set_index, way, ctx)
            stats.evictions += 1
            if self._dirty[set_index][way]:
                stats.writebacks += 1
            del way_of[tags[way]]
        tags[way] = tag
        way_of[tag] = way
        self._dirty[set_index][way] = is_write
        self.policy.on_fill(set_index, way, ctx)
        return False

    def _traced_access(
        self,
        address: int,
        pc: int = 0,
        is_write: bool = False,
        next_use: Optional[int] = None,
    ) -> bool:
        """The instrumented twin of :meth:`access`.

        Must perform *exactly* the same state transitions in the same
        order (a regression test asserts traced and untraced runs produce
        identical statistics); the only additions are read-only probes
        (``position_of``, ``selector.selected``) and event emission.
        """
        block = address >> self._offset_bits
        set_index = block & self._index_mask
        tag = block >> self._index_bits
        ctx = self._ctx
        ctx.pc = pc
        ctx.is_write = is_write
        ctx.next_use = next_use
        ctx.access_index += 1
        ctx.block = block

        tracer = self._tracer
        policy = self.policy
        position_of = self._position_of
        selector = self._selector
        access_index = ctx.access_index
        selected = (
            selector.policy_for_set(set_index) if selector is not None else None
        )

        stats = self.stats
        stats.accesses += 1
        way_of = self._way_of[set_index]
        way = way_of.get(tag)
        if way is not None:
            stats.hits += 1
            if is_write:
                self._dirty[set_index][way] = True
            pos_before = (
                position_of(set_index, way) if position_of is not None else None
            )
            policy.on_hit(set_index, way, ctx)
            pos_after = (
                position_of(set_index, way) if position_of is not None else None
            )
            tracer.hit(
                access_index, set_index, way, pos_before, pos_after,
                selected, block,
            )
            tracer.psel_tick(access_index, selector)
            return True

        stats.misses += 1
        duel_before = selector.selected() if selector is not None else None
        policy.on_miss(set_index, ctx)
        if selector is not None:
            duel_after = selector.selected()
            if duel_after != duel_before:
                tracer.duel_flip(access_index, set_index, duel_before, duel_after)
        tracer.miss(access_index, set_index, selected, block)
        tags = self._tags[set_index]
        if self._fill_count[set_index] < self.assoc:
            way = tags.index(None)
            self._fill_count[set_index] += 1
        else:
            if policy.should_bypass(set_index, ctx):
                stats.bypasses += 1
                tracer.bypass(access_index, set_index, selected, block)
                tracer.psel_tick(access_index, selector)
                return False
            way = policy.victim(set_index, ctx)
            if not 0 <= way < self.assoc:
                raise RuntimeError(
                    f"{policy.name} returned invalid victim way {way}"
                )
            victim_pos = (
                position_of(set_index, way) if position_of is not None else None
            )
            policy.on_evict(set_index, way, ctx)
            stats.evictions += 1
            dirty = self._dirty[set_index][way]
            if dirty:
                stats.writebacks += 1
            tracer.eviction(
                access_index, set_index, way, victim_pos, dirty, selected
            )
            del way_of[tags[way]]
        tags[way] = tag
        way_of[tag] = way
        self._dirty[set_index][way] = is_write
        policy.on_fill(set_index, way, ctx)
        fill_pos = (
            position_of(set_index, way) if position_of is not None else None
        )
        tracer.insertion(
            access_index, set_index, way, fill_pos, selected, block
        )
        tracer.psel_tick(access_index, selector)
        return False

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        set_index, tag = self.locate(address)
        return tag in self._way_of[set_index]

    def resident_tags(self, set_index: int):
        """Valid tags in a set (order is way order)."""
        return [t for t in self._tags[set_index] if t is not None]

    def invalidate(self, address: int) -> bool:
        """Drop a block if resident (used for inclusion enforcement)."""
        set_index, tag = self.locate(address)
        way = self._way_of[set_index].pop(tag, None)
        if way is None:
            return False
        self._tags[set_index][way] = None
        self._dirty[set_index][way] = False
        self._fill_count[set_index] -= 1
        return True

    def reset_stats(self) -> None:
        """Clear counters (e.g. after cache warmup) without losing contents."""
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetAssociativeCache(name={self.name!r}, sets={self.num_sets}, "
            f"assoc={self.assoc}, policy={self.policy.name})"
        )
