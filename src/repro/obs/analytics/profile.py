"""Vectorized Mattson-style profiler: miss curves and reuse histograms.

``trace/analysis.py`` is the semantic oracle: an OrderedDict LRU stack
walked per access, O(n * stack-scan) pure Python — minutes at a million
accesses.  This module produces the *same numbers* from one vectorized
pass:

* exact per-access LRU stack distances (the distance of access ``i`` is
  the number of distinct addresses touched since the previous occurrence
  of ``addresses[i]``), via two numpy building blocks:

  1. ``prev[i]`` — the index of the previous occurrence of each address
     (one stable argsort), and
  2. a merge-sort-style *left-smaller count*: with ``P[j] = prev[j]``
     (first touches get distinct negative surrogates), the count
     ``c(i) = #{j < i : P[j] < P[i]}`` satisfies
     ``distance(i) = c(i) - prev[i] - 1`` — every ``j <= prev[i]``
     contributes, plus exactly the first touches inside the reuse window.
     The count runs bottom-up over log2(n) merge levels; each level is a
     pair of global ``searchsorted`` calls (per-block offsets keep the
     concatenated blocks monotone) plus one scatter that performs the
     merge, so the whole thing is O(n log n) with no Python-level loop
     over accesses.

* the full LRU miss curve ``misses(c)`` for every capacity ``c`` (a
  suffix sum of the exact-distance histogram plus compulsory misses) —
  the input the Che/Fagin closed-form approximations need,
* the capped global stack-distance histogram, bit-identical to
  :func:`repro.trace.analysis.stack_distance_histogram`,
* per-set stack-distance histograms (run the same machinery on the
  set-major reordering of the stream: occurrences of an address never
  cross sets, and every access in an earlier set segment counts toward
  ``c(i)``, so the identity ``distance = c - prev - 1`` holds unchanged
  in concatenated coordinates), and
* the PDP-style per-set reuse histogram, bit-identical to
  :func:`repro.trace.analysis.per_set_reuse_histogram` (in set-major
  coordinates the reuse delta is simply ``i - prev[i]``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...core.plru import is_power_of_two

__all__ = [
    "MattsonProfile",
    "profile_trace",
    "stack_distances",
    "per_set_reuse_histogram_fast",
]

#: Default cap, matching ``trace.analysis.stack_distance_histogram``.
DEFAULT_MAX_DISTANCE = 4096

#: Default reuse cap, matching ``trace.analysis.per_set_reuse_histogram``.
DEFAULT_REUSE_MAX_DISTANCE = 256


def _extract_addresses(trace) -> Tuple[Sequence[int], Optional[int]]:
    """Addresses (and the binned set count, if the input carries one).

    Accepts a raw sequence, a :class:`repro.trace.record.Trace`, or a
    :class:`repro.engine.columnar.ColumnarTrace` (whose step-transposed
    chunks are scattered back into global access order, which needs one
    stream with every access kept).
    """
    if hasattr(trace, "chunks") and hasattr(trace, "num_sets"):
        if trace.collapsed or trace.lengths is not None:
            raise ValueError("profile an uncollapsed single-stream trace")
        addrs = np.empty(trace.n, dtype=np.int64)
        for chunk in trace.chunks:
            addrs[chunk.gidx_by_step] = chunk.addr_by_step
        return addrs, trace.num_sets
    if hasattr(trace, "address_list"):
        return trace.address_list(), None
    return trace, None


# ----------------------------------------------------------------------
# Vectorized building blocks.
# ----------------------------------------------------------------------
def _previous_occurrence(addrs):
    """``prev[i]``: index of the previous occurrence of ``addrs[i]``
    (-1 for first touches).  One stable argsort groups equal addresses
    in time order; within a group each element's predecessor is simply
    the previous sorted position."""
    n = int(addrs.size)
    prev = np.empty(n, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(addrs, kind="stable")
    sorted_addrs = addrs[order]
    prev_sorted = np.empty(n, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = order[:-1]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_addrs[1:], sorted_addrs[:-1], out=first[1:])
    prev_sorted[first] = -1
    prev[order] = prev_sorted
    return prev


def _left_smaller_counts(values):
    """``c[i] = #{j < i : values[j] < values[i]}`` for *distinct* values.

    Bottom-up mergesort counting, fully vectorized: at each level the
    array is a row of sorted blocks; per-block offsets (``span`` exceeds
    the value range) make the concatenation of all left (right) blocks
    globally sorted, so one ``searchsorted`` answers every cross-block
    rank query at once.  The same ranks place each element in its merged
    block, so no re-sort is needed — values are distinct (the padding
    sentinels too), hence no destination collisions.
    """
    n = int(values.size)
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    size = 1 << (n - 1).bit_length()
    cur = np.empty(size, dtype=np.int64)
    cur[:n] = values
    # Distinct sentinels larger than any real value (real values lie in
    # [-n, n-1]); distinctness keeps the merge scatter collision-free.
    cur[n:] = n + np.arange(size - n, dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    span = np.int64(4) * size  # > value range, keeps pair blocks disjoint
    half = 1
    while half < size:
        width = 2 * half
        pairs = size // width
        vals2 = cur.reshape(pairs, width)
        idx2 = idx.reshape(pairs, width)
        offset = (np.arange(pairs, dtype=np.int64) * span)[:, None]
        left = (vals2[:, :half] + offset).ravel()
        right = (vals2[:, half:] + offset).ravel()
        base = np.repeat(np.arange(pairs, dtype=np.int64) * half, half)
        # Left elements strictly smaller than each right element ...
        smaller = np.searchsorted(left, right) - base
        counts[idx2[:, half:].ravel()] += smaller
        # ... and the converse rank, which completes the merge positions.
        before = np.searchsorted(right, left) - base
        within = np.tile(np.arange(half, dtype=np.int64), pairs)
        block = np.repeat(np.arange(pairs, dtype=np.int64) * width, half)
        new_vals = np.empty(size, dtype=np.int64)
        new_idx = np.empty(size, dtype=np.int64)
        ldest = block + within + before
        rdest = block + within + smaller
        new_vals[ldest] = vals2[:, :half].ravel()
        new_idx[ldest] = idx2[:, :half].ravel()
        new_vals[rdest] = vals2[:, half:].ravel()
        new_idx[rdest] = idx2[:, half:].ravel()
        cur, idx = new_vals, new_idx
        half = width
    return counts[:n]


def _stack_distances(addrs):
    """Exact LRU stack distance per access (-1 cold); returns (dist, prev)."""
    n = int(addrs.size)
    prev = _previous_occurrence(addrs)
    if n == 0:
        return np.empty(0, dtype=np.int64), prev
    # First touches get distinct negative surrogates: they sort below
    # every real prev index, so each one inside a reuse window counts as
    # one distinct address, exactly as the LRU stack sees it.
    points = np.where(prev >= 0, prev, -np.arange(n, dtype=np.int64) - 1)
    counts = _left_smaller_counts(points)
    dist = counts - prev - 1
    dist[prev < 0] = -1
    return dist, prev


def stack_distances(trace) -> List[int]:
    """Exact (uncapped) LRU stack distance per access; -1 = first touch."""
    addresses, _ = _extract_addresses(trace)
    addrs = np.ascontiguousarray(addresses, dtype=np.int64)
    dist, _ = _stack_distances(addrs)
    return dist.tolist()


# ----------------------------------------------------------------------
# The profile object.
# ----------------------------------------------------------------------
class MattsonProfile:
    """One-pass cache-dynamics profile of an access stream.

    All histogram fields are plain Python lists of ints, so the profile
    itself is numpy-free once built (reports and JSON share one
    representation).

    Attributes
    ----------
    accesses, footprint, cold_misses:
        Stream length, distinct addresses, first touches (equal to
        footprint by definition).
    max_distance / distance_counts:
        Capped global stack-distance histogram; ``distance_counts[d]``
        counts non-cold accesses at ``min(distance, max_distance) == d``.
    exact_counts:
        Uncapped distance histogram (length <= footprint); the miss
        curve derives from it.
    num_sets / set_accesses / set_cold / set_distance_counts:
        Per-set surfaces when the profile was built with a set mapping
        (``set_index = address & (num_sets - 1)``); ``None`` otherwise.
    reuse_max_distance / reuse_counts:
        PDP-style per-set reuse histogram (aggregated over sets),
        bit-identical to ``trace.analysis.per_set_reuse_histogram``.
    """

    __slots__ = (
        "accesses", "footprint", "cold_misses", "max_distance",
        "distance_counts", "exact_counts", "num_sets", "set_accesses",
        "set_cold", "set_distance_counts", "reuse_max_distance",
        "reuse_counts", "_miss_counts",
    )

    def __init__(self, accesses, footprint, max_distance, distance_counts,
                 exact_counts, num_sets=None, set_accesses=None,
                 set_cold=None, set_distance_counts=None,
                 reuse_max_distance=None, reuse_counts=None):
        self.accesses = accesses
        self.footprint = footprint
        self.cold_misses = footprint
        self.max_distance = max_distance
        self.distance_counts = distance_counts
        self.exact_counts = exact_counts
        self.num_sets = num_sets
        self.set_accesses = set_accesses
        self.set_cold = set_cold
        self.set_distance_counts = set_distance_counts
        self.reuse_max_distance = reuse_max_distance
        self.reuse_counts = reuse_counts
        self._miss_counts: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Oracle-identical views.
    # ------------------------------------------------------------------
    def stack_distance_histogram(self) -> Dict[int, int]:
        """Exactly ``trace.analysis.stack_distance_histogram``: capped
        distances as keys (cold under -1), zero-count keys absent."""
        out = {d: c for d, c in enumerate(self.distance_counts) if c}
        if self.cold_misses:
            out[-1] = self.cold_misses
        return out

    def per_set_stack_histogram(self, set_index: int) -> Dict[int, int]:
        """Stack-distance histogram of one set's subsequence (same dict
        convention as the global oracle)."""
        if self.set_distance_counts is None:
            raise ValueError("profile was built without a set mapping")
        row = self.set_distance_counts[set_index]
        out = {d: c for d, c in enumerate(row) if c}
        cold = self.set_cold[set_index]
        if cold:
            out[-1] = cold
        return out

    def per_set_reuse_histogram(self) -> List[int]:
        """Exactly ``trace.analysis.per_set_reuse_histogram``."""
        if self.reuse_counts is None:
            raise ValueError("profile was built without a set mapping")
        return list(self.reuse_counts)

    # ------------------------------------------------------------------
    # Miss curve.
    # ------------------------------------------------------------------
    def miss_counts(self) -> List[int]:
        """LRU misses at every capacity ``c in 0..footprint`` (fully
        associative): compulsory misses plus reuses at distance >= c."""
        if self._miss_counts is None:
            out = [0] * (self.footprint + 1)
            running = 0
            exact = self.exact_counts
            limit = len(exact)
            for c in range(self.footprint, -1, -1):
                if c < limit:
                    running += exact[c]
                out[c] = self.cold_misses + running
            self._miss_counts = out
        return self._miss_counts

    def lru_misses(self, capacity: int) -> int:
        """Misses of a fully-associative LRU cache of ``capacity`` blocks."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        counts = self.miss_counts()
        return counts[min(capacity, self.footprint)]

    def miss_curve(self) -> List[float]:
        """``MR(c) = misses(c) / accesses`` for ``c in 0..footprint``."""
        if self.accesses == 0:
            return [0.0]
        n = float(self.accesses)
        return [m / n for m in self.miss_counts()]

    def miss_curve_points(self, max_points: int = 257) -> List[Tuple[int, int, float]]:
        """``(capacity, misses, miss_rate)`` rows for figures.

        Every capacity when the footprint is small; a deterministic
        geometric grid (all small capacities, then ~25 % growth) above
        ``max_points``, always including 0 and the footprint.
        """
        counts = self.miss_counts()
        n = self.accesses
        if self.footprint + 1 <= max_points:
            caps = list(range(self.footprint + 1))
        else:
            caps_set = set(range(min(self.footprint, 16) + 1))
            c = 16
            while c < self.footprint:
                c = max(c + 1, int(c * 1.25))
                caps_set.add(min(c, self.footprint))
            caps = sorted(caps_set)
        return [
            (c, counts[c], (counts[c] / n) if n else 0.0) for c in caps
        ]

    # ------------------------------------------------------------------
    # Summary stats.
    # ------------------------------------------------------------------
    def _distance_percentile(self, q: float) -> Optional[int]:
        """Nearest-rank percentile of the exact reuse distances."""
        total = self.accesses - self.cold_misses
        if total <= 0:
            return None
        rank = max(1, -(-int(q * 1000) * total // 1000))  # ceil(q*total)
        running = 0
        for d, c in enumerate(self.exact_counts):
            running += c
            if running >= rank:
                return d
        return len(self.exact_counts) - 1  # pragma: no cover - safety net

    def working_set_stats(self) -> dict:
        """Footprint / reuse summary used by reports and run manifests."""
        n = self.accesses
        reuses = n - self.cold_misses
        weighted = sum(d * c for d, c in enumerate(self.exact_counts))
        return {
            "accesses": n,
            "footprint": self.footprint,
            "cold_misses": self.cold_misses,
            "cold_fraction": (self.cold_misses / n) if n else 0.0,
            "reuse_accesses": reuses,
            "mean_stack_distance": (weighted / reuses) if reuses else None,
            "p50_stack_distance": self._distance_percentile(0.5),
            "p90_stack_distance": self._distance_percentile(0.9),
            "max_stack_distance": (
                len(self.exact_counts) - 1 if self.exact_counts else None
            ),
        }

    def to_json(self, max_curve_points: int = 257) -> dict:
        """JSON-ready report payload (full per-set rows stay API-only)."""
        payload = {
            "schema": "repro-analytics-profile/1",
            "working_set": self.working_set_stats(),
            "max_distance": self.max_distance,
            "stack_distance_histogram": {
                str(d): c for d, c in
                sorted(self.stack_distance_histogram().items())
            },
            "miss_curve_points": [
                list(row) for row in self.miss_curve_points(max_curve_points)
            ],
        }
        if self.num_sets is not None:
            payload["num_sets"] = self.num_sets
            payload["per_set"] = {
                "accesses": list(self.set_accesses),
                "footprint": list(self.set_cold),
            }
            payload["reuse"] = {
                "max_distance": self.reuse_max_distance,
                "counts": list(self.reuse_counts),
            }
        return payload


# ----------------------------------------------------------------------
# Builders.
# ----------------------------------------------------------------------
def _validate(max_distance: int, reuse_max_distance: int,
              num_sets: Optional[int]) -> None:
    if max_distance < 0:
        raise ValueError("max_distance must be non-negative")
    if reuse_max_distance < 1:
        raise ValueError("reuse_max_distance must be positive")
    if num_sets is not None and not is_power_of_two(num_sets):
        raise ValueError(f"num_sets must be a power of two, got {num_sets}")


def _profile(addrs, num_sets, max_distance, reuse_max_distance):
    n = int(addrs.size)
    dist, _prev = _stack_distances(addrs)
    reuse_mask = dist >= 0
    exact = dist[reuse_mask]
    cold = n - int(exact.size)
    exact_counts = (
        np.bincount(exact).tolist() if exact.size else []
    )
    distance_counts = np.bincount(
        np.minimum(exact, max_distance), minlength=max_distance + 1
    ).tolist() if exact.size else [0] * (max_distance + 1)
    kwargs = {}
    if num_sets is not None:
        mask = num_sets - 1
        si = addrs & mask
        order = np.argsort(si, kind="stable")
        sub = addrs[order]
        ssub = si[order]
        dsub, prev_sub = _stack_distances(sub)
        cold_sub = dsub < 0
        width = max_distance + 1
        if n:
            set_cold = np.bincount(ssub[cold_sub], minlength=num_sets)
            set_accesses = np.bincount(si, minlength=num_sets)
            rows = ssub[~cold_sub]
            capped = np.minimum(dsub[~cold_sub], max_distance)
            set_counts = np.bincount(
                rows * width + capped, minlength=num_sets * width
            ).reshape(num_sets, width)
            deltas = (np.arange(n, dtype=np.int64) - prev_sub)[~cold_sub]
            reuse_counts = np.bincount(
                np.minimum(deltas, reuse_max_distance),
                minlength=reuse_max_distance + 1,
            )
            kwargs = {
                "set_accesses": set_accesses.tolist(),
                "set_cold": set_cold.tolist(),
                "set_distance_counts": set_counts.tolist(),
                "reuse_counts": reuse_counts.tolist(),
            }
        else:
            kwargs = {
                "set_accesses": [0] * num_sets,
                "set_cold": [0] * num_sets,
                "set_distance_counts": [[0] * width] * num_sets,
                "reuse_counts": [0] * (reuse_max_distance + 1),
            }
        kwargs["num_sets"] = num_sets
        kwargs["reuse_max_distance"] = reuse_max_distance
    return MattsonProfile(
        n, cold, max_distance, distance_counts, exact_counts, **kwargs
    )


def profile_trace(
    trace,
    num_sets: Optional[int] = None,
    max_distance: int = DEFAULT_MAX_DISTANCE,
    reuse_max_distance: int = DEFAULT_REUSE_MAX_DISTANCE,
) -> MattsonProfile:
    """Profile an access stream in one vectorized pass.

    ``trace`` is a raw address sequence, a :class:`repro.trace.Trace`, or
    a :class:`repro.engine.columnar.ColumnarTrace` (which contributes its
    set binning when ``num_sets`` is not given).  ``num_sets=None`` skips
    the per-set surfaces — the global pass is then roughly half the work.
    """
    addresses, inferred = _extract_addresses(trace)
    if num_sets is None:
        num_sets = inferred
    _validate(max_distance, reuse_max_distance, num_sets)
    addrs = np.ascontiguousarray(addresses, dtype=np.int64)
    if addrs.ndim != 1:
        raise ValueError("addresses must be a flat sequence")
    return _profile(addrs, num_sets, max_distance, reuse_max_distance)


def per_set_reuse_histogram_fast(
    trace, num_sets: int, max_distance: int = DEFAULT_REUSE_MAX_DISTANCE
) -> List[int]:
    """Vectorized twin of ``trace.analysis.per_set_reuse_histogram``.

    In set-major order the reuse delta of an access is simply the gap to
    its previous occurrence, so this needs one stable argsort and one
    bincount — no stack machinery at all.
    """
    if not is_power_of_two(num_sets):
        raise ValueError("num_sets must be a power of two")
    if max_distance < 1:
        raise ValueError("max_distance must be positive")
    addresses, _ = _extract_addresses(trace)
    addrs = np.ascontiguousarray(addresses, dtype=np.int64)
    n = int(addrs.size)
    if n == 0:
        return [0] * (max_distance + 1)
    order = np.argsort(addrs & (num_sets - 1), kind="stable")
    prev = _previous_occurrence(addrs[order])
    deltas = (np.arange(n, dtype=np.int64) - prev)[prev >= 0]
    return np.bincount(
        np.minimum(deltas, max_distance), minlength=max_distance + 1
    ).tolist()
