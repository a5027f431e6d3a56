"""Pluggable per-access and per-run invariant checks.

An :class:`Invariant` inspects a production cache (and its policy) after an
access and returns a human-readable violation string, or ``None`` when the
state is healthy.  The differential/conformance runners call
:func:`check_invariants` on every access of every fuzz stream, so a
violation is reported at the *first* access that corrupts state — and the
offending stream can then be shrunk like any other counterexample.

Per-access invariants
---------------------
``tag-uniqueness``       every resident tag occupies exactly one way, and
                         the ``way_of`` reverse map agrees with the tag
                         array.
``fill-count``           the per-set fill counter equals the number of
                         valid ways (the probe-vs-victim branch in the miss
                         path depends on it; ``invalidate`` decrements it).
``position-bijectivity`` policies exposing ``position_of`` must decode a
                         permutation of ``0..assoc-1`` in every set.
``psel-bounds``          every saturating counter of a set-dueling selector
                         stays inside its advertised ``[lo, hi]`` rails.
``stats-consistency``    hits + misses == accesses, and bypasses/evictions
                         never exceed misses.

Per-run checks (:mod:`repro.verify.differential`)
-------------------------------------------------
* LUT-vs-walk kernel equality for the tree-PLRU family, and
* Belady-MIN dominance on next-use-annotated streams.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

__all__ = [
    "Invariant",
    "TagUniquenessInvariant",
    "FillCountInvariant",
    "PositionBijectivityInvariant",
    "PselBoundsInvariant",
    "StatsConsistencyInvariant",
    "default_invariants",
    "check_invariants",
]


class Invariant:
    """Base class: subclasses implement :meth:`check`."""

    name = "invariant"

    def check(self, cache) -> Optional[str]:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class TagUniquenessInvariant(Invariant):
    """Tags are unique per set and the reverse map agrees with the ways."""

    name = "tag-uniqueness"

    def check(self, cache) -> Optional[str]:
        for set_index in range(cache.num_sets):
            tags = cache._tags[set_index]
            way_of = cache._way_of[set_index]
            valid = [t for t in tags if t is not None]
            if len(valid) != len(set(valid)):
                return (
                    f"set {set_index}: duplicate resident tags {valid}"
                )
            if len(way_of) != len(valid):
                return (
                    f"set {set_index}: way_of has {len(way_of)} entries "
                    f"but {len(valid)} valid ways"
                )
            for tag, way in way_of.items():
                if tags[way] != tag:
                    return (
                        f"set {set_index}: way_of maps tag {tag} to way "
                        f"{way} holding {tags[way]}"
                    )
        return None


class FillCountInvariant(Invariant):
    """The fill counter tracks the number of valid ways exactly."""

    name = "fill-count"

    def check(self, cache) -> Optional[str]:
        for set_index in range(cache.num_sets):
            valid = sum(t is not None for t in cache._tags[set_index])
            count = cache._fill_count[set_index]
            if count != valid:
                return (
                    f"set {set_index}: fill_count {count} but {valid} "
                    "valid ways"
                )
        return None


class PositionBijectivityInvariant(Invariant):
    """``position_of`` decodes a permutation of ``0..assoc-1`` per set."""

    name = "position-bijectivity"

    def check(self, cache) -> Optional[str]:
        position_of = getattr(cache.policy, "position_of", None)
        if position_of is None:
            return None
        expected = list(range(cache.assoc))
        for set_index in range(cache.num_sets):
            positions = [position_of(set_index, w) for w in range(cache.assoc)]
            if sorted(positions) != expected:
                return (
                    f"set {set_index}: positions {positions} are not a "
                    f"permutation of 0..{cache.assoc - 1}"
                )
        return None


class PselBoundsInvariant(Invariant):
    """Every selector counter stays within its saturation rails."""

    name = "psel-bounds"

    def check(self, cache) -> Optional[str]:
        selector = getattr(cache.policy, "selector", None)
        if selector is None:
            return None
        for counter in selector.counters.values():
            if not counter.lo <= counter.value <= counter.hi:
                return (
                    f"selector counter value {counter.value} outside "
                    f"[{counter.lo}, {counter.hi}]"
                )
        return None


class StatsConsistencyInvariant(Invariant):
    """Aggregate counters stay mutually consistent."""

    name = "stats-consistency"

    def check(self, cache) -> Optional[str]:
        stats = cache.stats
        if stats.hits + stats.misses != stats.accesses:
            return (
                f"hits {stats.hits} + misses {stats.misses} != "
                f"accesses {stats.accesses}"
            )
        if stats.bypasses > stats.misses:
            return f"bypasses {stats.bypasses} exceed misses {stats.misses}"
        if stats.evictions > stats.misses:
            return f"evictions {stats.evictions} exceed misses {stats.misses}"
        return None


def default_invariants() -> List[Invariant]:
    """The standard battery, in check order."""
    return [
        TagUniquenessInvariant(),
        FillCountInvariant(),
        PositionBijectivityInvariant(),
        PselBoundsInvariant(),
        StatsConsistencyInvariant(),
    ]


def check_invariants(
    cache, invariants: Iterable[Invariant]
) -> Optional[str]:
    """First violation as ``"name: detail"``, or ``None`` when all hold."""
    for invariant in invariants:
        violation = invariant.check(cache)
        if violation is not None:
            return f"{invariant.name}: {violation}"
    return None
