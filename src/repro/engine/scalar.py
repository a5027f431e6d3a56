"""The scalar tree-PLRU IPV simulator: one lane, fed in batches.

:class:`ScalarStreamSimulator` is the one per-access PLRU-IPV loop.  The
GA's one-shot :func:`repro.ga.fitness.simulate_misses_plru_ipv` is a
single :meth:`~ScalarStreamSimulator.feed` over the whole trace, and the
serving front-end (:mod:`repro.serve`) feeds bounded batches forever,
carrying the cache state across them.  :func:`simulate_duel` runs a
whole set-dueling (DGIPPR) trace on the same loop in three passes.

Per access it performs exactly the transitions of ``kernel="lut"``
(table lookups through :func:`repro.kernels.tables.resolve_kernel`) or,
for ``kernel="walk"`` and associativities without tables (k > 16), the
inlined Figure 5/7/9 bit-walk reference.  Miss counts and miss indices
are bit-identical between the two and to the columnar ``feed`` stream
over the same concatenated accesses — pinned by
``tests/engine/test_streaming_feed.py`` and the conformance cells.

:func:`simulate_misses_lru_ipv` is the true-LRU-stack counterpart (the
GA's LRU baselines and ``repro compare``'s LRU cells).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.plru import is_power_of_two
from ..kernels.tables import resolve_kernel

__all__ = [
    "ScalarStreamSimulator",
    "duel_selections",
    "simulate_duel",
    "simulate_misses_lru_ipv",
]


def _validate_ipv_entries(entries: Sequence[int], assoc: int) -> None:
    """Reject malformed IPVs up front: silent mis-simulation is worse than
    a :class:`ValueError` (an out-of-range ``V[i]`` used to corrupt the
    recency state without any diagnostic)."""
    if len(entries) != assoc + 1:
        raise ValueError(
            f"IPV for a {assoc}-way set needs {assoc + 1} entries, "
            f"got {len(entries)}"
        )
    for i, e in enumerate(entries):
        if not 0 <= e < assoc:
            raise ValueError(
                f"IPV entry V[{i}]={e} out of range 0..{assoc - 1}"
            )


def _validate_window(addresses: Sequence[int], warmup: int) -> None:
    """Reject degenerate measurement windows.

    ``warmup >= len(addresses)`` used to yield a silently empty measured
    window: every simulator returned 0 misses, so fitness compared 0-vs-0
    cycles and ranked all IPVs equal without any diagnostic.  Raise
    instead — a caller who wants a pure-warmup run is holding a config
    bug, not a result.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    if warmup >= len(addresses):
        raise ValueError(
            f"warmup ({warmup}) consumes the whole trace "
            f"({len(addresses)} accesses): the measured window is empty"
        )


def simulate_misses_lru_ipv(
    addresses: Sequence[int],
    num_sets: int,
    assoc: int,
    entries: Sequence[int],
    warmup: int,
    miss_indices: Optional[List[int]] = None,
) -> int:
    """Misses in the measured window for an IPV on true-LRU stacks.

    Each set's recency stack is a list of block addresses, MRU first.
    Returns misses at indices >= ``warmup``; when ``miss_indices`` is given,
    the access index of every measured miss is appended to it (for
    MLP-aware fitness).  With the LRU vector this is exactly
    :class:`~repro.policies.lru.TrueLRUPolicy`; other vectors may differ
    from it while sets fill, because the stacks hold no invalid ways.
    """
    _validate_ipv_entries(entries, assoc)
    _validate_window(addresses, warmup)
    promo = list(entries[:assoc])
    insert = entries[assoc]
    mask = num_sets - 1
    stacks: List[List[int]] = [[] for _ in range(num_sets)]
    misses = 0
    for i, addr in enumerate(addresses):
        stack = stacks[addr & mask]
        # Membership first: about half of a typical trace misses, and a
        # failed ``index`` would raise once per miss.
        if addr in stack:
            pos = stack.index(addr)
            new = promo[pos]
            if new >= len(stack):
                new = len(stack) - 1
        else:
            if i >= warmup:
                misses += 1
                if miss_indices is not None:
                    miss_indices.append(i)
            if len(stack) >= assoc:
                stack.pop()  # evict LRU
            # Incoming block conceptually lands at LRU then moves to V[k].
            stack.append(addr)
            pos = len(stack) - 1
            new = insert if insert < len(stack) else len(stack) - 1
        if new != pos:
            del stack[pos]
            stack.insert(new, addr)
    return misses


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
        self.warmup = warmup
        self.kernel = kernel
        self._vectors: Dict[tuple, tuple] = {}
        self.set_entries(entries)
        self.kernel = "walk" if self._lut is None else "lut"
        self.reset()

    def set_entries(self, entries: Sequence[int]) -> None:
        """Run later feeds under the IPV ``entries``, in the same kernel
        mode; cache state and stream position carry over.

        Every vector's tables share ``victim`` and ``pos``, so a
        set-dueling follower stream can change vectors between feeds;
        each vector is resolved once per simulator.
        """
        key = tuple(entries)
        vector = self._vectors.get(key)
        if vector is None:
            normalized = tuple(int(e) for e in key)
            # Raises ValueError for a malformed IPV in every kernel mode.
            lut = resolve_kernel(self.kernel, self.assoc, normalized)
            vector = self._vectors[key] = (normalized, lut)
        self.entries, self._lut = vector

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


def duel_selections(
    selector, miss_sets: Sequence[int], miss_indices: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Replay leader-set misses through a set-dueling ``selector``.

    ``miss_sets``/``miss_indices`` are every leader-set miss of a run,
    warmup included, in access order.  Returns ``(starts, picks)``: the
    follower sets run vector ``picks[j]`` from access ``starts[j]`` on,
    where ``starts[0] == 0``.  A miss at access ``i`` moves the selector
    before any later access, so its new pick starts at ``i + 1``.
    ``selector`` ends in the state the per-access run leaves it in.
    """
    record, selected = selector.record_miss, selector.selected
    current = selected()
    starts, picks = [0], [current]
    for set_index, i in zip(miss_sets, miss_indices):
        record(set_index)
        pick = selected()
        if pick != current:
            current = pick
            starts.append(i + 1)
            picks.append(pick)
    return starts, picks


def simulate_duel(
    addresses: Sequence[int],
    num_sets: int,
    assoc: int,
    vectors: Sequence[Sequence[int]],
    selector,
    warmup: int,
    kernel: str = "auto",
    miss_indices: Optional[List[int]] = None,
) -> int:
    """Measured misses of a set-dueling run over ``vectors`` (DGIPPR).

    ``selector`` (:func:`repro.core.dueling.make_selector`) names the
    leader sets and advances exactly as in the per-access run.  Leader sets
    always run their own vector and PSEL moves only on leader-set misses,
    so the run splits exactly into three passes on the scalar loop:

    1. each leader group runs its own vector; all its misses, warmup
       included, are kept;
    2. :func:`duel_selections` replays them in access order, giving the
       followers' vector as a step function of the access index;
    3. the follower accesses run as one stream whose vector switches
       between feeds at the steps.

    ``miss_indices``, when given, collects the access index of every
    measured miss in access order.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    mask = num_sets - 1
    roles = np.array(
        [selector.leader_policy(s) for s in range(num_sets)], dtype=np.int64
    )[addresses & mask]
    found = [np.empty(0, dtype=np.int64)]
    for policy, entries in enumerate(vectors):
        group = np.flatnonzero(roles == policy)
        if len(group):
            local: List[int] = []
            ScalarStreamSimulator(
                num_sets, assoc, entries, kernel=kernel
            ).feed(addresses[group], local)
            found.append(group[local])
    leader_misses = np.sort(np.concatenate(found))
    starts, picks = duel_selections(
        selector,
        (addresses[leader_misses] & mask).tolist(),
        leader_misses.tolist(),
    )

    followers = np.flatnonzero(roles < 0)
    bounds = np.searchsorted(followers, starts).tolist() + [len(followers)]
    simulator = ScalarStreamSimulator(
        num_sets, assoc, vectors[picks[0]],
        warmup=int(np.searchsorted(followers, warmup)), kernel=kernel,
    )
    follower_misses = [] if miss_indices is not None else None
    for pick, lo, hi in zip(picks, bounds, bounds[1:]):
        if lo < hi:
            simulator.set_entries(vectors[pick])
            simulator.feed(addresses[followers[lo:hi]], follower_misses)
    measured_leaders = leader_misses[np.searchsorted(leader_misses, warmup):]
    if miss_indices is not None:
        merged = np.concatenate((measured_leaders, followers[follower_misses]))
        merged.sort()
        miss_indices.extend(merged.tolist())
    return simulator.measured_misses + len(measured_leaders)
