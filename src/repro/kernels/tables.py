"""Precomputed transition-table kernels for tree PseudoLRU.

The GA fitness simulator calls the Figure 5/7/9 bit-walks millions of
times, yet the entire per-set PLRU state is only ``k - 1`` bits — 32 768
states for a 16-way set (Berthet's state-space observation).  Every walk is
therefore exactly memoizable.  This module compiles, for any power-of-two
``k <= MAX_TABLE_ASSOC``, four flat lookup tables that turn the hot loops
into O(1) array indexing:

``victim[state]``
    The PseudoLRU victim way (Figure 5) for each of the ``S = 2**(k-1)``
    states.
``pos[(state << log2k) | way]``
    The recency-stack position of ``way`` (Figure 7).
``hit[(state << log2k) | way]``
    The *composed* hit transition for one IPV: decode the position, look up
    the promotion target ``V[pos]``, re-encode via Figure 9 — all collapsed
    into a single new-state lookup.
``fill[(state << log2k) | way]``
    The composed fill transition: ``set_position(state, way, V[k])``.

Key compilation trick: ``set_position(state, way, x)`` rewrites only the
``log2(k)`` plru bits on ``way``'s leaf-to-root path, and the new values
depend only on ``(way, x)`` — never on the old state.  So every composed
transition is ``(state & ~path_mask[way]) | path_bits[way][x]``, built from
two tiny per-``k`` tables; per-IPV compilation is one vectorized numpy pass
over the state space.  The columnar engine skips that composition
altogether: it applies the path write against the per-``k`` tables of
:func:`base_tables` with the target position read from the lane's IPV, so
its lanes carry no tables.

Tables are stored as ``array('H')`` (uint16; the packed state of a 16-way
set fits in 15 bits) and cached in a bounded LRU keyed by
``(k, ipv_entries)`` — DGIPPR duels 2-4 vectors, the GA's elites recur, and
classic PLRU is the all-zeros vector, so the cache absorbs recompiles.

When tables are unavailable (``k > MAX_TABLE_ASSOC``) callers fall back
to the bit-walk reference implementations in :mod:`repro.core.plru`; the
counters here record which kernel actually ran so provenance manifests can
state it (see :func:`kernel_provenance`).
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.plru import is_power_of_two, set_position

__all__ = [
    "KERNEL_CACHE_CAPACITY",
    "KernelTables",
    "MAX_TABLE_ASSOC",
    "base_tables",
    "clear_kernel_cache",
    "compile_tables",
    "kernel_cache_info",
    "kernel_counters",
    "kernel_provenance",
    "promotion_orbit",
    "record_kernel_call",
    "reset_kernel_counters",
    "resolve_kernel",
    "tables_supported",
]

#: Largest associativity we compile tables for: S = 2**(k-1) states, so 16
#: ways is 32 768 states and ~3 MB of tables per IPV — the paper's LLC.
MAX_TABLE_ASSOC = 16

#: Bounded LRU capacity for composed per-IPV tables (DGIPPR duels 2-4
#: vectors; GA elites and the classic-PLRU vector recur).
KERNEL_CACHE_CAPACITY = 16


# ----------------------------------------------------------------------
# Counters (observability).  Guarded by a lock: the parallel GA path keeps
# one compile cache per worker *process*, but threads may share this one.
# ----------------------------------------------------------------------
_LOCK = threading.RLock()

_COUNTERS: Dict[str, float] = {}


def reset_kernel_counters() -> None:
    """Zero every kernel counter (tests, fresh bench runs)."""
    with _LOCK:
        _COUNTERS.update(
            compiles=0,
            compile_seconds=0.0,
            cache_hits=0,
            cache_misses=0,
            lut_calls=0,
            walk_calls=0,
            columnar_calls=0,
        )


reset_kernel_counters()


def kernel_counters() -> Dict[str, float]:
    """Snapshot of the kernel counters (compiles, cache traffic, calls)."""
    with _LOCK:
        return dict(_COUNTERS)


def record_kernel_call(mode: str) -> None:
    """Count one simulator/policy dispatch (``lut``/``walk``/``columnar``)."""
    if mode not in ("lut", "walk", "columnar"):
        raise ValueError(
            f"kernel mode must be 'lut', 'walk' or 'columnar', got {mode!r}"
        )
    with _LOCK:
        _COUNTERS[f"{mode}_calls"] += 1


# ----------------------------------------------------------------------
# Support predicate.
# ----------------------------------------------------------------------
def tables_supported(k: int) -> bool:
    """True when transition tables can be compiled for associativity ``k``:
    a power of two from 2 to :data:`MAX_TABLE_ASSOC`."""
    return is_power_of_two(k) and 2 <= k <= MAX_TABLE_ASSOC


def _normalize_entries(k: int, entries: Optional[Sequence[int]]) -> Tuple[int, ...]:
    """Validate and freeze IPV entries; ``None`` means classic PLRU.

    Classic tree PLRU *is* the all-zeros vector: ``promote(state, way)`` is
    exactly ``set_position(state, way, 0)`` (Figure 6 vs Figure 9).
    """
    if entries is None:
        return (0,) * (k + 1)
    entries = tuple(int(e) for e in entries)
    if len(entries) != k + 1:
        raise ValueError(
            f"IPV for a {k}-way set needs {k + 1} entries, got {len(entries)}"
        )
    for i, e in enumerate(entries):
        if not 0 <= e < k:
            raise ValueError(f"IPV entry V[{i}]={e} out of range 0..{k - 1}")
    return entries


# ----------------------------------------------------------------------
# Per-k base tables (never evicted: at most a handful of k values live).
# ----------------------------------------------------------------------
class _BaseTables:
    """Per-associativity tables every IPV's transitions are built from
    (obtain through :func:`base_tables`)."""

    __slots__ = ("k", "log2k", "states", "victim", "pos", "path_mask", "path_bits")

    def __init__(self, k: int):
        self.k = k
        self.log2k = k.bit_length() - 1
        self.states = 1 << (k - 1)
        S = self.states
        # path_mask[w]: the plru bits on way w's leaf-to-root path.
        # path_bits[w][x]: those bits valued so that way w decodes to x
        # (= set_position(0, w, x) restricted to the path, which is all of it).
        self.path_mask: List[int] = []
        self.path_bits: List[List[int]] = []
        for w in range(k):
            mask = 0
            q = k + w
            while q > 1:
                parent = q >> 1
                mask |= 1 << (parent - 1)
                q = parent
            self.path_mask.append(mask)
            self.path_bits.append([set_position(0, w, x, k) for x in range(k)])
        self.victim, self.pos = self._compile()

    def _compile(self) -> Tuple[array, array]:
        k, S, log2k = self.k, self.states, self.log2k
        states = np.arange(S, dtype=np.uint32)
        # Figure 5 walk, vectorized over every state at once.
        n = np.ones(S, dtype=np.uint32)
        for _ in range(log2k):
            n = (n << 1) | ((states >> (n - 1)) & 1)
        victim_np = (n - k).astype(np.uint16)
        # Figure 7 decode per way.
        pos_np = np.empty((S, k), dtype=np.uint16)
        for w in range(k):
            q = k + w
            b = 0
            acc = np.zeros(S, dtype=np.uint32)
            while q > 1:
                parent = q >> 1
                bit = (states >> (parent - 1)) & 1
                if not (q & 1):
                    bit ^= 1
                acc |= bit << b
                q = parent
                b += 1
            pos_np[:, w] = acc
        return _np_to_array(victim_np), _np_to_array(pos_np.reshape(-1))


def _np_to_array(values) -> array:
    """uint-ish numpy vector -> ``array('H')`` without a Python-int detour."""
    out = array("H")
    out.frombytes(values.astype(np.uint16, copy=False).tobytes())
    return out


_BASE_TABLES: Dict[int, _BaseTables] = {}


def base_tables(k: int) -> _BaseTables:
    """The per-``k`` tables, built once per process and never evicted.

    ``victim`` and ``pos`` are indexed as in the module docstring.
    ``path_mask[w]`` holds the plru bits on way ``w``'s leaf-to-root
    path; ``path_bits[w][x]`` holds those bits valued so that ``w``
    decodes to position ``x`` — i.e. ``set_position(s, w, x, k)`` for
    *any* state ``s`` equals ``(s & ~path_mask[w]) | path_bits[w][x]``.
    Every IPV's transitions are expressible over these alone: a hit on
    ``way`` writes ``x = V[pos[(state << log2k) | way]]``, a fill
    ``x = V[k]``.  :class:`KernelTables` composes that per vector for
    the scalar kernels; the columnar engine applies it directly (see
    :func:`promotion_orbit` for runs of hits).  Raises
    :class:`ValueError` where :func:`tables_supported` is false.
    """
    if not tables_supported(k):
        raise ValueError(
            f"no base tables for associativity {k} (supported: powers of "
            f"two <= {MAX_TABLE_ASSOC})"
        )
    base = _BASE_TABLES.get(k)
    if base is None:
        base = _BaseTables(k)
        _BASE_TABLES[k] = base
    return base


def promotion_orbit(
    k: int, entries: Optional[Sequence[int]] = None
) -> Tuple[List[List[int]], List[int], List[int]]:
    """Promotion-chain orbit tables for one IPV.

    ``n`` consecutive hits to the same way advance its recency position
    along the promotion chain ``p -> V[p]`` — the tags never move, and
    each hop rewrites only the way's path bits from the new position
    (:func:`base_tables`), so the whole run collapses to a single
    state write at position ``V^n(p)``.  A fill is one more hop of the
    same chain: from the virtual position ``k`` (not resident) to the
    insertion position ``V[k]``, so a miss followed by ``n - 1`` hits
    lands on ``V^n(k)``.  The chain enters a cycle within ``k + 1``
    steps, making ``V^n`` O(1) for any ``n``:

    Returns ``(orbit, entry, cycle)`` for start positions ``p`` in
    ``0..k``, with ``orbit[p][i] == V^i(p)`` for ``i < 2k``, and for
    ``n >= 2k``
    ``V^n(p) == orbit[p][entry[p] + (n - entry[p]) % cycle[p]]``;
    ``orbit[p][1]`` is ``V[p]`` itself.
    """
    promo = _normalize_entries(k, entries)
    orbit: List[List[int]] = []
    entry: List[int] = []
    cycle: List[int] = []
    for p in range(k + 1):
        row: List[int] = []
        seen: Dict[int, int] = {}
        e = c = -1
        cur = p
        for i in range(2 * k):
            if e < 0:
                if cur in seen:
                    e = seen[cur]
                    c = i - e
                else:
                    seen[cur] = i
            row.append(cur)
            cur = promo[cur]
        # A repeat always lands within the first k + 2 visits (the start,
        # then pigeonhole over the k real positions) and 2k >= k + 2 for
        # every k >= 2.
        orbit.append(row)
        entry.append(e)
        cycle.append(c)
    return orbit, entry, cycle


# ----------------------------------------------------------------------
# Composed per-IPV tables.
# ----------------------------------------------------------------------
class KernelTables:
    """Compiled transition tables for one ``(k, IPV)`` pair.

    ``victim`` and ``pos`` are shared (per ``k``); ``hit`` and ``fill`` are
    composed for the specific vector.  All four are ``array('H')`` indexed
    as documented in the module docstring.
    """

    __slots__ = (
        "k", "log2k", "entries", "victim", "pos", "hit", "fill",
        "compile_seconds",
    )

    def __init__(self, k: int, entries: Tuple[int, ...]):
        base = base_tables(k)
        self.k = k
        self.log2k = base.log2k
        self.entries = entries
        self.victim = base.victim
        self.pos = base.pos
        started = time.perf_counter()
        promo = entries[:k]
        insert = entries[k]
        S = base.states
        states = np.arange(S, dtype=np.uint32)
        pos_np = np.frombuffer(base.pos, dtype=np.uint16).reshape(S, k)
        promo_np = np.asarray(promo, dtype=np.intp)
        hit = np.empty((S, k), dtype=np.uint32)
        fill = np.empty((S, k), dtype=np.uint32)
        for w in range(k):
            keep = states & ~np.uint32(base.path_mask[w])
            path_bits_w = np.asarray(base.path_bits[w], dtype=np.uint32)
            hit[:, w] = keep | path_bits_w[promo_np[pos_np[:, w]]]
            fill[:, w] = keep | path_bits_w[insert]
        self.hit = _np_to_array(hit.reshape(-1))
        self.fill = _np_to_array(fill.reshape(-1))
        self.compile_seconds = time.perf_counter() - started

    @property
    def nbytes(self) -> int:
        """Total table footprint in bytes (victim + pos + hit + fill)."""
        return sum(
            t.itemsize * len(t)
            for t in (self.victim, self.pos, self.hit, self.fill)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KernelTables(k={self.k}, entries={list(self.entries)}, "
            f"{self.nbytes / 1024:.0f} KiB, "
            f"compiled in {self.compile_seconds * 1e3:.1f} ms)"
        )


_IPV_CACHE: "OrderedDict[Tuple[int, Tuple[int, ...]], KernelTables]" = OrderedDict()


def compile_tables(
    k: int, entries: Optional[Sequence[int]] = None
) -> Optional[KernelTables]:
    """Compile (or fetch from the LRU cache) tables for ``(k, entries)``.

    ``entries=None`` compiles classic tree PLRU (the all-zeros vector).
    Returns ``None`` when tables are unsupported for ``k`` (caller falls
    back to the bit-walk reference).  Raises :class:`ValueError` for
    malformed IPV entries — malformed vectors must never silently
    mis-simulate.
    """
    if not tables_supported(k):
        if entries is not None and is_power_of_two(k):
            _normalize_entries(k, entries)  # still validate before bailing
        return None
    key = (k, _normalize_entries(k, entries))
    with _LOCK:
        tables = _IPV_CACHE.get(key)
        if tables is not None:
            _IPV_CACHE.move_to_end(key)
            _COUNTERS["cache_hits"] += 1
            return tables
        _COUNTERS["cache_misses"] += 1
        from ..obs.spans import span  # local: keep the module import-light

        with span("kernels.compile", k=key[0]):
            tables = KernelTables(key[0], key[1])
        _COUNTERS["compiles"] += 1
        _COUNTERS["compile_seconds"] += tables.compile_seconds
        _IPV_CACHE[key] = tables
        while len(_IPV_CACHE) > KERNEL_CACHE_CAPACITY:
            _IPV_CACHE.popitem(last=False)
        return tables


def resolve_kernel(
    kernel: str, k: int, entries: Optional[Sequence[int]] = None
) -> Optional[KernelTables]:
    """Map a user-facing kernel setting to tables (or ``None`` for walk).

    ``"auto"`` compiles tables when supported and otherwise falls back;
    ``"lut"`` demands tables (raises if unsupported); ``"walk"`` forces the
    bit-walk reference.
    """
    if kernel == "walk":
        if entries is not None and is_power_of_two(k):
            _normalize_entries(k, entries)
        return None
    if kernel == "lut":
        tables = compile_tables(k, entries)
        if tables is None:
            raise ValueError(
                f"LUT kernel unavailable for associativity {k} "
                f"(supported: powers of two <= {MAX_TABLE_ASSOC})"
            )
        return tables
    if kernel == "auto":
        return compile_tables(k, entries)
    raise ValueError(f"kernel must be 'auto', 'lut' or 'walk', got {kernel!r}")


def clear_kernel_cache() -> int:
    """Drop every cached table set; returns how many were dropped."""
    with _LOCK:
        n = len(_IPV_CACHE)
        _IPV_CACHE.clear()
        return n


def kernel_cache_info() -> Dict[str, object]:
    """Cache occupancy plus the (k, entries) keys currently resident."""
    with _LOCK:
        return {
            "capacity": KERNEL_CACHE_CAPACITY,
            "size": len(_IPV_CACHE),
            "keys": [
                {"k": k, "entries": list(entries)} for k, entries in _IPV_CACHE
            ],
            "nbytes": sum(t.nbytes for t in _IPV_CACHE.values()),
        }


# ----------------------------------------------------------------------
# Observability integration.
# ----------------------------------------------------------------------
def kernel_provenance() -> Dict[str, object]:
    """The kernel facts a provenance manifest should record.

    Which kernel modes ran (``lut_calls`` / ``walk_calls`` /
    ``columnar_calls``), compile activity and cache traffic — enough to
    state which kernel produced a traced run.
    """
    counters = kernel_counters()
    modes_used = [
        mode for mode in ("lut", "walk", "columnar")
        if counters[f"{mode}_calls"]
    ]
    return {
        "max_table_assoc": MAX_TABLE_ASSOC,
        "cache_capacity": KERNEL_CACHE_CAPACITY,
        "cache_size": len(_IPV_CACHE),
        "counters": counters,
        "mode": (
            modes_used[0] if len(modes_used) == 1
            else "mixed" if modes_used
            else "unused"
        ),
    }
