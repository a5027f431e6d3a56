"""Columnar numpy batch simulation engine for tree-PLRU IPV policies.

The transition-table kernels made the per-access policy math O(1),
which left the Python interpreter loop over accesses as the hot-path
bottleneck.  This module removes that loop: tags, PLRU state words and
per-set fill counts live in 2-D/3-D numpy arrays indexed
``[lane, set(, way)]`` — a *lane* is one IPV, nothing more than its
``k + 1`` entries — and whole batches of accesses are applied with
``np.take``/fancy indexing.  Every transition is the path write
``(state & ~path_mask[way]) | path_bits[way][target]`` over the per-``k``
tables of :func:`repro.kernels.tables.base_tables` (the memoized Figure
5/7/9 walks), with ``target`` read from the lane's IPV, so no lane needs
tables of its own and every miss count produced here is bit-identical to
the bit-walk in :class:`~repro.engine.scalar.ScalarStreamSimulator`; the
differential/golden suites in ``tests/engine`` and ``tests/verify`` pin
that.

Lockstep-over-sets scheduling
-----------------------------
Accesses to *different* sets never interact (each set's PLRU state, tags
and fill count evolve independently), so the stream can be re-ordered
set-major without changing any outcome.  :class:`ColumnarTrace`
preprocesses a trace once (shared by every lane that replays it):

1. bin accesses by set index (stable, so each set keeps its own order),
2. order set *columns* by descending per-set depth, and
3. transpose into step-major layout: step ``j`` holds the ``j``-th access
   of every set that has one.

Ordering columns by depth makes the active sets of step ``j`` a
contiguous *prefix* of the column axis, so the simulation kernel works on
plain array slices — no per-step gather of the state arrays.  Warmup is
handled with the original access indices, which ride along in the
transposed layout.  Ragged tails (sets with fewer accesses than the
deepest set, and a final short chunk) fall out of the prefix widths.

Streams never interact either, so a *segmented* trace bins several side
by side (stream ``t``'s set ``s`` is column ``t * num_sets + s``): a pass
takes as many steps as its deepest column, not the sum of each stream's
depth, and returns misses per lane and per stream.

Set-dueling does not run here: its PSEL counter moves in global access
order across sets, which this scheduling reorders.
:func:`repro.engine.scalar.simulate_duel` runs a duel exactly, in three
passes on the scalar loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.plru import is_power_of_two
from ..kernels import tables as _tables

__all__ = [
    "DEFAULT_BATCH_ACCESSES",
    "DEFAULT_DEPTH_SAMPLE",
    "BatchCounters",
    "BatchSimulator",
    "ColumnarTrace",
    "columnar_supported",
    "simulate_misses_plru_columnar",
]

#: Accesses per preprocessing chunk.  Bounds the transposed layout's
#: working memory to O(chunk) regardless of trace length (the streaming
#: ingestion path feeds chunks of this size), while keeping the per-chunk
#: numpy call overhead amortized.  Chosen from the bench-kernels chunk
#: sweep: throughput is flat from ~16k up (the transpose is
#: bincount/argsort-bound), so the smallest flat point wins on memory.
DEFAULT_BATCH_ACCESSES = 1 << 16

#: ``kernel="auto"`` batches through the columnar engine only at or above
#: this many lanes — below it the per-run numpy setup outweighs the
#: amortized trace pass and the scalar LUT path wins (bench-kernels
#: ``population_scaling`` row: the crossover sits between 2 and 8 lanes
#: on every host measured).
DEFAULT_AUTO_MIN_LANES = 4

#: Default hit-depth sampling stride for :class:`BatchCounters`: depths
#: are decoded on every ``depth_sample``-th lockstep step (a systematic
#: sample over per-set access ranks).  1 is exhaustive; the default keeps
#: the counters-enabled overhead inside the ``make smoke-analytics``
#: budget on the lockstep engine.
DEFAULT_DEPTH_SAMPLE = 8

#: Scalar-spill tuning for collapsed traces.  Run collapsing flattens
#: single-hot-key columns, but a set where *two* hot keys interleave
#: (A,B,A,B -- period-2, which per-run collapsing cannot merge) still
#: yields a column hundreds of entries deep, and the lockstep loop then
#: burns thousands of thin numpy steps on a handful of sets.  Steps at
#: or past the first step narrower than the break-even
#: width are instead *spilled* to a per-access scalar loop over those
#: few columns (same tables, same state arrays -- bit-identical).  A
#: lockstep step costs roughly one fixed batch of numpy calls regardless
#: of width, while the scalar loop costs ~1 us per (lane, access); the
#: break-even step *population* is therefore a constant, so the width
#: threshold is ``_SPILL_ENTRIES // lanes`` (floored at _SPILL_WIDTH).
#: Spilling only kicks in when at least _SPILL_MIN_STEPS lockstep steps
#: are saved and the vectorized prefix keeps at least _SPILL_MIN_CAP
#: steps (tiny chunks stay fully lockstep).
_SPILL_WIDTH = 8
_SPILL_ENTRIES = 24
_SPILL_MIN_STEPS = 32
_SPILL_MIN_CAP = 16


def _hit_decoder(k: int):
    """``decode(eq, miss_way) -> (is_hit, way)`` for ``[..., k]`` compares.

    A set's tags are unique, so a compare row holds at most one True.  Its
    k bytes are read as ``k // 8`` uint64 words (one ``u{k}`` word when
    k < 8), word j shifted up j bits, so each way owns one bit of ``x``
    and a de Bruijn lookup finds it without a reduce over the way axis.
    A miss and a way-0 hit share lookup slot 0, so ``is_hit`` gates it.
    The lookup decodes the identity compare: either byte order works.
    """
    mul, top = np.uint64(0x03F79D71B4CB0A89), np.uint64(58)
    shifts = [np.uint64(j) for j in range(1, k // 8)]

    def word(eq):
        words = eq.view(f"u{min(k, 8)}").astype(np.uint64, copy=False)
        x = words[..., 0]
        for j, shift in enumerate(shifts, 1):
            x = x | (words[..., j] << shift)
        return x

    hit_way = np.zeros(64, dtype=np.int64)
    hit_way[(word(np.eye(k, dtype=bool)) * mul) >> top] = np.arange(k)

    def decode(eq, miss_way):
        x = word(eq)
        is_hit = x != 0
        way = hit_way.take((x * mul) >> top)
        return is_hit, np.where(is_hit, way, miss_way)
    return decode


class BatchCounters:
    """Per-lane/per-set counters accumulated during one engine run.

    All arrays are numpy ``int64``.  Counters cover the **entire**
    stream — warmup included — so for a ``warmup=0`` run the per-lane
    totals reconcile exactly with a scalar
    :class:`~repro.cache.stats.CacheStats` over the same trace
    (``fills == misses`` here: this engine never bypasses).
    ``measured_misses`` repeats the simulator's warmup-filtered return
    value so one object carries both views.

    ``hit_depth[lane, d]`` counts hits whose pre-promotion recency
    position was ``d``, sampled every ``depth_sample`` steps
    (``depth_sample == 1`` means exhaustive, in which case each row sums
    to the lane's hit count).
    """

    __slots__ = ("lanes", "num_sets", "assoc", "warmup", "accesses",
                 "set_accesses", "hits", "misses", "evictions", "cold_fills",
                 "hit_depth", "depth_sample", "measured_misses")

    def __init__(self, lanes, num_sets, assoc, warmup, accesses,
                 set_accesses, misses, cold_fills, hit_depth, depth_sample,
                 measured_misses):
        self.lanes = lanes
        self.num_sets = num_sets
        self.assoc = assoc
        self.warmup = warmup
        self.accesses = accesses
        self.set_accesses = set_accesses
        self.misses = misses
        self.hits = set_accesses[None, :] - misses
        self.cold_fills = cold_fills
        self.evictions = misses - cold_fills
        self.hit_depth = hit_depth
        self.depth_sample = depth_sample
        self.measured_misses = measured_misses

    def totals(self, lane: int) -> Dict[str, int]:
        """Whole-stream totals for one lane (CacheStats-comparable)."""
        hits = int(self.hits[lane].sum())
        misses = int(self.misses[lane].sum())
        return {
            "accesses": self.accesses,
            "hits": hits,
            "misses": misses,
            "fills": misses,
            "cold_fills": int(self.cold_fills[lane].sum()),
            "evictions": int(self.evictions[lane].sum()),
            "hit_rate": hits / self.accesses if self.accesses else 0.0,
            "measured_misses": int(self.measured_misses[lane]),
        }

    def hit_depth_histogram(self, lane: int):
        """Sampled pre-promotion recency-depth counts (length assoc)."""
        return [int(c) for c in self.hit_depth[lane]]


def columnar_supported(assoc: int) -> bool:
    """True when the engine can simulate ``assoc``-way sets: the per-``k``
    base tables exist (powers of two up to
    :data:`repro.kernels.MAX_TABLE_ASSOC`)."""
    return _tables.tables_supported(assoc)


def _check_geometry(num_sets: int, assoc: int) -> None:
    if not is_power_of_two(num_sets):
        raise ValueError(f"num_sets must be a power of two, got {num_sets}")
    if not _tables.tables_supported(assoc):
        raise ValueError(
            f"columnar engine unsupported for associativity {assoc} "
            f"(needs the per-k tables: powers of two <= "
            f"{_tables.MAX_TABLE_ASSOC})"
        )


# ----------------------------------------------------------------------
# Trace preprocessing (shared by every lane batch over the same trace).
# ----------------------------------------------------------------------
class _Chunk:
    """Step-transposed layout of one slice of the access stream."""

    __slots__ = ("cols", "step_offsets", "addr_by_step", "gidx_by_step",
                 "max_depth", "rep_by_step")

    def __init__(self, cols, step_offsets, addr_by_step, gidx_by_step,
                 max_depth, rep_by_step=None):
        self.cols = cols
        self.step_offsets = step_offsets
        self.addr_by_step = addr_by_step
        self.gidx_by_step = gidx_by_step
        self.max_depth = max_depth
        self.rep_by_step = rep_by_step


#: Addresses below this fit int32 tag arrays — half the memory traffic of
#: the dominant per-step tag compare.  int64 is used above it.
_INT32_ADDR_LIMIT = 1 << 31


class ColumnarTrace:
    """Set-binned, step-transposed form of one access trace.

    Built once per ``(trace, num_sets)`` and replayed by any number of
    lanes — this is where GA populations amortize trace decoding.  The
    trace is processed in chunks of ``batch_accesses`` so working memory
    stays O(chunk) even for streams that never materialize fully.

    ``collapse_runs=True`` additionally collapses consecutive duplicate
    addresses within each set's column into ``(address, repeat)`` pairs.
    A run of ``n`` identical accesses is one access followed by ``n - 1``
    guaranteed hits whose promotions walk the IPV's promotion chain, and
    the way's path bits depend only on the *final* position
    (:func:`repro.kernels.tables.promotion_orbit`), so the simulator
    applies whole runs in O(1) — bit-identical misses, miss indices and
    final state.  This is the antidote to lockstep degeneration on
    Zipf-skewed streams, where a hot key turns its set's column into one
    long run and per-step widths collapse to 1.  Counters require the
    original per-access columns, so ``run(counters=True)`` rejects
    collapsed traces.

    ``addresses`` may also be a list of streams to bin side by side (see
    the module docstring); ``lengths`` then holds their access counts
    (``None`` for one flat stream), and access indices stay local to each.
    """

    __slots__ = ("num_sets", "n", "batch_accesses", "chunks", "addr_dtype",
                 "collapsed", "lengths", "columns")

    def __init__(
        self,
        addresses: Sequence,
        num_sets: int,
        batch_accesses: Optional[int] = None,
        collapse_runs: bool = False,
    ):
        if not is_power_of_two(num_sets):
            raise ValueError(
                f"num_sets must be a power of two, got {num_sets}"
            )
        if batch_accesses is None:
            batch_accesses = DEFAULT_BATCH_ACCESSES
        elif batch_accesses < 1:
            raise ValueError("batch_accesses must be positive")
        self.lengths = stream_base = None
        if (isinstance(addresses, (list, tuple)) and addresses
                and hasattr(addresses[0], "__len__")):
            self.lengths = tuple(len(s) for s in addresses)
            # First access of each stream, in the concatenated order.
            stream_base = np.cumsum((0,) + self.lengths)
            addresses = np.concatenate(
                [np.asarray(s, dtype=np.int64) for s in addresses]
            )
        addrs = np.ascontiguousarray(addresses, dtype=np.int64)
        if addrs.ndim != 1:
            raise ValueError("addresses must be a flat sequence")
        if addrs.size and int(addrs.min()) < 0:
            raise ValueError("addresses must be non-negative")
        self.num_sets = num_sets
        self.columns = num_sets * (len(self.lengths) if self.lengths else 1)
        self.n = int(addrs.size)
        self.batch_accesses = batch_accesses
        self.collapsed = bool(collapse_runs)
        self.addr_dtype = (
            np.int32
            if not addrs.size or int(addrs.max()) < _INT32_ADDR_LIMIT
            else np.int64
        )
        self.chunks: List[_Chunk] = []
        for base in range(0, self.n, batch_accesses):
            chunk = addrs[base:base + batch_accesses]
            self.chunks.append(self._transpose(chunk, base, stream_base))

    def _transpose(self, chunk, base: int, stream_base) -> _Chunk:
        m = chunk.size
        si = chunk & (self.num_sets - 1)
        if stream_base is not None:
            stream = np.searchsorted(
                stream_base, np.arange(base, base + m), side="right"
            ) - 1
            si += stream * self.num_sets
        # Stable argsort picks radix for small int dtypes: an order of
        # magnitude faster than sorting the int64 set indices directly.
        if self.columns <= (1 << 16):
            si = si.astype(np.uint16)
        order = np.argsort(si, kind="stable")
        sorted_si = si[order]
        addr_sorted = chunk[order]
        gidx_sorted = base + order
        if stream_base is not None:
            gidx_sorted -= stream_base[sorted_si // self.num_sets]
        rep = None
        if self.collapsed and m:
            # Runs are consecutive equal addresses in column-major order.
            # In one stream equal addresses imply equal sets; across
            # streams the same address may end one column and start the
            # next, so there a column change ends a run too.
            new_run = np.empty(m, dtype=bool)
            new_run[0] = True
            np.not_equal(addr_sorted[1:], addr_sorted[:-1], out=new_run[1:])
            if stream_base is not None:
                new_run[1:] |= sorted_si[1:] != sorted_si[:-1]
            starts = np.flatnonzero(new_run)
            rep = np.diff(np.append(starts, m)).astype(np.int32)
            sorted_si = sorted_si[starts]
            addr_sorted = addr_sorted[starts]
            gidx_sorted = gidx_sorted[starts]
            m = int(starts.size)
        counts = np.bincount(sorted_si, minlength=self.columns)
        start = np.zeros(self.columns, dtype=np.int64)
        np.cumsum(counts[:-1], out=start[1:])
        rank = np.arange(m, dtype=np.int64) - start[sorted_si]
        # Columns ordered by descending depth: the sets active at step j
        # are then exactly the first `width[j]` columns.
        set_order = np.argsort(-counts, kind="stable")
        col_of_set = np.empty(self.columns, dtype=np.int64)
        col_of_set[set_order] = np.arange(self.columns, dtype=np.int64)
        counts_desc = counts[set_order]
        max_depth = int(counts_desc[0]) if m else 0
        widths = np.searchsorted(
            -counts_desc, -np.arange(max_depth, dtype=np.int64), side="left"
        )
        step_offsets = np.zeros(max_depth + 1, dtype=np.int64)
        np.cumsum(widths, out=step_offsets[1:])
        # Within a step the active columns appear in column order, so the
        # destination of sorted position p is a pure function of its
        # (rank, column) pair — one vectorized scatter transposes the lot.
        dest = step_offsets[rank] + col_of_set[sorted_si]
        addr_by_step = np.empty(m, dtype=self.addr_dtype)
        addr_by_step[dest] = addr_sorted
        gidx_by_step = np.empty(m, dtype=np.int64)
        gidx_by_step[dest] = gidx_sorted
        rep_by_step = None
        if rep is not None:
            rep_by_step = np.empty(m, dtype=np.int32)
            rep_by_step[dest] = rep
        ncols = int(widths[0]) if max_depth else 0
        return _Chunk(
            set_order[:ncols].copy(), step_offsets, addr_by_step,
            gidx_by_step, max_depth, rep_by_step,
        )


# ----------------------------------------------------------------------
# Lanes: IPV entries over the shared per-k tables.
# ----------------------------------------------------------------------
class _LaneTables:
    """The lanes' IPVs and the per-``k`` tables every transition reads.

    A lane is nothing more than its ``k + 1`` IPV entries, read as a
    promotion map on ``k + 1`` positions: ``V[p]`` for a hit at position
    ``p``, and ``V[k]`` for a fill, which promotes from the virtual
    position ``k`` (not resident).  Every transition moves the touched
    way ``n`` steps along that map from ``p0`` (its position on a hit,
    ``k`` on a miss) and rewrites only its leaf-to-root path bits::

        (state & ~path_mask[way]) | path_bits[way][orbit[p0][n]]

    A single access is ``n = 1``, so the target is ``V[p0]`` itself; a
    collapsed run of ``rep`` identical accesses is ``n = rep``.
    ``victim``, ``pos`` and the path-write tables are the shared
    :func:`repro.kernels.tables.base_tables`; per unique IPV there is
    only its :func:`~repro.kernels.tables.promotion_orbit` (``k + 1``
    rows of ``2k`` positions plus an entry and a cycle length each).
    """

    __slots__ = ("assoc", "shift", "base", "victim", "pos", "keep",
                 "path_bits", "unique", "orbits", "lane_unique", "orbit",
                 "entry", "cycle", "row_base")

    def __init__(self, assoc: int, entries_list: Sequence[Sequence[int]]):
        base = _tables.base_tables(assoc)
        unique: Dict[Tuple[int, ...], int] = {}
        lane_unique: List[int] = []
        orbits: List[tuple] = []
        for entries in entries_list:
            key = tuple(int(e) for e in entries)
            index = unique.get(key)
            if index is None:
                index = unique[key] = len(unique)
                # Raises ValueError unless there are k + 1 entries, each
                # in 0..k-1: a malformed lane must never mis-simulate.
                orbits.append(_tables.promotion_orbit(assoc, key))
            lane_unique.append(index)
        self.assoc = assoc
        self.shift = base.log2k
        self.base = base
        # Zero-copy uint16 views of the per-k tables.
        self.victim = np.frombuffer(base.victim, dtype=np.uint16)
        self.pos = np.frombuffer(base.pos, dtype=np.uint16)
        self.keep = ~np.asarray(base.path_mask, dtype=np.int64)
        self.path_bits = np.asarray(base.path_bits, dtype=np.int64).reshape(-1)
        # Per unique IPV: (orbit, entry, cycle) as nested lists for the
        # scalar spill loop, and stacked flat for np.take — row
        # ``u * (k + 1) + p0`` is IPV u's orbit from p0, and its position
        # n steps on is ``orbit[row * 2k + n]``.
        self.unique = len(unique)
        self.orbits = orbits
        self.orbit, self.entry, self.cycle = (
            np.asarray([o[part] for o in orbits], dtype=np.int64).reshape(-1)
            for part in range(3)
        )
        # Per lane: the first row of its unique IPV.
        self.lane_unique = lane_unique
        self.row_base = np.asarray(lane_unique, dtype=np.int64) * (assoc + 1)


# ----------------------------------------------------------------------
# The batch simulator: many single-IPV lanes, lockstep over sets.
# ----------------------------------------------------------------------
class BatchSimulator:
    """Simulate many IPV lanes over one trace in a single columnar pass.

    Each lane is one IPV; all lanes share the geometry, the warmup window
    and — crucially — the preprocessed trace.  Identical IPVs share one
    promotion orbit (GA populations routinely carry duplicates).
    Results are bit-identical to the scalar walk/LUT loops of
    :class:`~repro.engine.scalar.ScalarStreamSimulator`, per lane.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        entries_list: Sequence[Sequence[int]],
        warmup: int = 0,
    ):
        _check_geometry(num_sets, assoc)
        if not entries_list:
            raise ValueError("BatchSimulator needs at least one IPV lane")
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        self.num_sets = num_sets
        self.assoc = assoc
        self.warmup = warmup
        self.lanes = len(entries_list)
        self._tables = _LaneTables(assoc, entries_list)
        #: :class:`BatchCounters` from the last ``run(counters=True)``.
        self.counters: Optional[BatchCounters] = None
        self._stream: Optional[dict] = None

    def run(
        self,
        trace,
        collect_miss_indices: bool = False,
        counters: bool = False,
        depth_sample: int = DEFAULT_DEPTH_SAMPLE,
    ):
        """Replay ``trace`` through every lane from cold state.

        ``trace`` is a :class:`ColumnarTrace` (reuse it across
        populations!) or a raw address sequence.  Returns the per-lane
        measured miss counts as an ``int64`` array of shape ``(lanes,)``,
        or ``(lanes, streams)`` for a segmented trace; with
        ``collect_miss_indices`` a ``(misses, indices)`` tuple where
        ``indices[lane]`` is the sorted list of measured-miss access
        indices (exactly what the scalar ``miss_indices`` output yields).
        Miss indices and counters describe one stream, so a segmented
        trace rejects both.

        ``counters=True`` additionally accumulates a
        :class:`BatchCounters` on ``self.counters`` (hits, misses,
        evictions and cold fills per lane and set, plus a hit-depth
        histogram sampled every ``depth_sample`` steps).  The miss counts
        and final state are bit-identical with or without counters; the
        extra cost per step is one chunk-local accumulate and two list
        appends of arrays the kernel computes anyway.
        """
        from ..obs.spans import span

        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace(trace, self.num_sets)
        elif trace.num_sets != self.num_sets:
            raise ValueError(
                f"trace was binned for {trace.num_sets} sets, "
                f"simulator has {self.num_sets}"
            )
        if counters and depth_sample < 1:
            raise ValueError("depth_sample must be >= 1")
        if (counters or collect_miss_indices) and trace.lengths is not None:
            raise ValueError("miss indices and counters need one stream")
        if counters and trace.collapsed:
            raise ValueError(
                "counters need per-access columns; build the trace with "
                "collapse_runs=False"
            )
        self.counters = None
        with span("engine.columnar_run", lanes=self.lanes,
                  accesses=trace.n, counters=int(counters)):
            return self._run(trace, collect_miss_indices, counters,
                             depth_sample)

    def begin_stream(self) -> "BatchSimulator":
        """Reset to cold state and open an incremental feed.

        Unlike :meth:`run` — which always starts cold — a stream carries
        the tag/state/fill arrays across :meth:`feed` calls, so a long
        trace can be pushed through in bounded-memory chunks with results
        bit-identical to one cold :meth:`run` over the concatenation.
        Persistent tags are ``int64`` so chunks may mix address widths.
        """
        L, S, k = self.lanes, self.num_sets, self.assoc
        self._stream = {
            "state": np.zeros((L, S), dtype=np.int64),
            "tags": np.full((L, S, k), -1, dtype=np.int64),
            "nfill": np.zeros((L, S), dtype=np.int32),
            "pos": 0,
            "misses": np.zeros(L, dtype=np.int64),
        }
        return self

    def feed(self, addresses, batch_accesses: Optional[int] = None,
             collapse_runs: bool = False):
        """Push one batch of the stream through every lane.

        ``addresses`` is a raw address sequence or a pre-binned
        :class:`ColumnarTrace`.  Opens a stream implicitly on first call
        (:meth:`begin_stream` resets explicitly).  Returns the per-lane
        *measured* miss counts for this batch alone (``int64``, shape
        ``(lanes,)``) — the warmup window is interpreted against the
        global stream position, so summing the per-batch returns equals
        the single-shot :meth:`run` result exactly.

        ``collapse_runs=True`` builds the trace with duplicate-run
        collapsing (see :class:`ColumnarTrace`) — bit-identical results,
        large speedup on skewed streams.
        """
        from ..obs.spans import span

        if self._stream is None:
            self.begin_stream()
        if not isinstance(addresses, ColumnarTrace):
            trace = ColumnarTrace(
                addresses, self.num_sets, batch_accesses,
                collapse_runs=collapse_runs,
            )
        else:
            trace = addresses
            if trace.num_sets != self.num_sets:
                raise ValueError(
                    f"trace was binned for {trace.num_sets} sets, "
                    f"simulator has {self.num_sets}"
                )
        if trace.lengths is not None:
            raise ValueError("a stream is fed one address stream")
        stream = self._stream
        with span("engine.columnar_feed", lanes=self.lanes,
                  accesses=trace.n):
            misses = self._run(
                trace, False,
                state=stream["state"], tags=stream["tags"],
                nfill=stream["nfill"], index_offset=stream["pos"],
            )
        stream["pos"] += trace.n
        stream["misses"] += misses
        return misses

    @property
    def stream_pos(self) -> int:
        """Accesses fed so far on the open stream (0 when none open)."""
        return 0 if self._stream is None else self._stream["pos"]

    def stream_misses(self):
        """Cumulative per-lane measured misses over the open stream."""
        if self._stream is None:
            raise RuntimeError("no stream open; call feed()/begin_stream()")
        return self._stream["misses"].copy()

    def end_stream(self):
        """Close the stream, returning cumulative per-lane misses."""
        misses = self.stream_misses()
        self._stream = None
        return misses

    def _run(self, trace: ColumnarTrace, collect_miss_indices: bool,
             counters: bool = False,
             depth_sample: int = DEFAULT_DEPTH_SAMPLE,
             state=None, tags=None, nfill=None, index_offset: int = 0):
        L, S, k = self.lanes, self.num_sets, self.assoc
        t = self._tables
        shift = t.shift
        # Access indices inside `trace` are local; against a stream prefix
        # of `index_offset` accesses the measured window starts at
        # local index `warmup - index_offset` (negative: all measured).
        warmup = self.warmup - index_offset
        victim_t, pos_t, keep_t, bits_t = t.victim, t.pos, t.keep, t.path_bits
        orbit_t, entry_t, cycle_t = t.orbit, t.entry, t.cycle
        two_k = 2 * k
        # Single accesses (n = 1) land on orbit[row][1] == V[p0].
        first_t = orbit_t[1::two_k].copy()
        row_base = t.row_base[:, None]
        decode = _hit_decoder(k)
        C = trace.columns
        if state is None:
            state = np.zeros((L, C), dtype=np.int64)
            tags = np.full((L, C, k), -1, dtype=trace.addr_dtype)
            nfill = np.zeros((L, C), dtype=np.int32)
        col_misses = np.zeros((L, C), dtype=np.int64)
        lane_rows = np.arange(L)[:, None]
        miss_lanes: List = []
        miss_gidx: List = []
        if counters:
            set_accesses = np.zeros(S, dtype=np.int64)
            miss_ls = np.zeros((L, S), dtype=np.int64)
            depth_counts = np.zeros(L * k + 1, dtype=np.int64)
            lane_k = (np.arange(L, dtype=np.int64) * k)[:, None]
        for chunk in trace.chunks:
            cols = chunk.cols
            offsets = chunk.step_offsets
            addr_by_step = chunk.addr_by_step
            gidx_by_step = chunk.gidx_by_step
            rep_by_step = chunk.rep_by_step
            # Chunk-local copies in column order: every step below then
            # touches a contiguous prefix of the column axis.  `tg` is
            # C-contiguous: (lane, column c, way 0) is flat_base[lane, c].
            st = state[:, cols]
            tg = tags.take(cols, axis=1)
            nf = nfill[:, cols]
            cm = np.zeros((L, cols.size), dtype=np.int64)
            flat_base = (lane_rows * cols.size + np.arange(cols.size)) * k
            # Collapsed chunks with a pathologically deep tail (a couple
            # of interleaved hot keys in one set) cap the lockstep loop
            # at the first thin step and finish those columns scalar.
            depth_cap = chunk.max_depth
            spill_widths = None
            if (rep_by_step is not None and not counters
                    and chunk.max_depth >= _SPILL_MIN_CAP + _SPILL_MIN_STEPS):
                widths_all = np.diff(offsets)
                thin = np.flatnonzero(
                    widths_all <= max(_SPILL_WIDTH, _SPILL_ENTRIES // L)
                )
                if (thin.size and int(thin[0]) >= _SPILL_MIN_CAP
                        and chunk.max_depth - int(thin[0])
                        >= _SPILL_MIN_STEPS):
                    depth_cap = int(thin[0])
                    spill_widths = widths_all
            if counters:
                # Step-major miss buffer, one plane per lockstep step:
                # a slice write per step plus one vectorized sum over
                # the step axis at chunk end.  This beats a per-step
                # `+=` scatter (a numpy call per step) and a ragged
                # buffer + masked bincount (a fancy-index pass over
                # every access) — both blow the 5 % overhead budget.
                miss_buf = np.zeros(
                    (L, chunk.max_depth, cols.size), dtype=bool
                )
                sw_frames: List = []
                hit_frames: List = []
            # One segment-max pass replaces a per-step rep reduce.
            rep_max = None
            if rep_by_step is not None and depth_cap:
                rep_max = np.maximum.reduceat(
                    rep_by_step, offsets[:depth_cap]
                ).tolist()
            for j in range(depth_cap):
                o0, o1 = int(offsets[j]), int(offsets[j + 1])
                w = o1 - o0
                addr = addr_by_step[o0:o1]
                gidx = gidx_by_step[o0:o1]
                stj = st[:, :w]
                nfj = nf[:, :w]
                # One [L, w, k] compare, decoded as words (_hit_decoder)
                # instead of any/argmax reduces over the short way axis.
                # A miss fills the next cold way, else the victim.
                room = nfj < k
                is_hit, way = decode(
                    tg[:, :w, :] == addr[None, :, None],
                    np.where(room, nfj, victim_t.take(stj)),
                )
                miss = ~is_hit
                cold = miss & room
                sw = (stj << shift) | way
                # The one transition (see _LaneTables): the way moves n
                # steps along its lane's promotion orbit, from the row of
                # its position (k on a miss), and only its path bits are
                # rewritten.  A single access is n = 1; a collapsed run
                # is n = rep, folded onto the orbit's cycle past the
                # stored 2k positions.
                row = row_base + np.where(is_hit, pos_t.take(sw), k)
                if rep_max is not None and rep_max[j] > 1:
                    n = rep_by_step[o0:o1].astype(np.int64)
                    e = entry_t.take(row)
                    n = np.where(n < two_k, n, e + (n - e) % cycle_t.take(row))
                    target = orbit_t.take(row * two_k + n)
                else:
                    target = first_t.take(row)
                new_state = (
                    (stj & keep_t.take(way)) | bits_t.take(way * k + target)
                )
                if counters:
                    miss_buf[:, j, :w] = miss
                    if j % depth_sample == 0:
                        # On a hit, way == hit_way, so `sw` already
                        # indexes the pre-promotion (state, way) cell the
                        # pos table decodes; misses are masked out of the
                        # histogram at chunk end.
                        sw_frames.append(sw)
                        hit_frames.append(is_hit)
                # Hits rewrite the resident tag with itself, so the tag
                # scatter needs no mask at all: one flat put, whose
                # [L, w] indices take `addr` cyclically, i.e. per column.
                tg.put(flat_base[:, :w] + way, addr)
                stj[...] = new_state
                nfj += cold
                measured = miss & (gidx >= warmup)[None, :]
                cm[:, :w] += measured
                if collect_miss_indices:
                    rows, cells = np.nonzero(measured)
                    if rows.size:
                        miss_lanes.append(rows)
                        miss_gidx.append(gidx[cells])
            if spill_widths is not None:
                sp_rows, sp_gidx = self._spill_tail(
                    chunk, depth_cap, spill_widths, st, tg, nf, cm,
                    warmup, collect_miss_indices,
                )
                if sp_rows:
                    miss_lanes.append(np.asarray(sp_rows, dtype=np.int64))
                    miss_gidx.append(np.asarray(sp_gidx, dtype=np.int64))
            state[:, cols] = st
            tags[:, cols, :] = tg
            nfill[:, cols] = nf
            col_misses[:, cols] += cm
            if counters:
                # Per-set access counts without touching the address
                # arrays: column c of this chunk is active on exactly the
                # steps whose width exceeds c (widths are non-increasing).
                widths = np.diff(offsets)
                if widths.size:
                    per_col = np.searchsorted(
                        -widths, -np.arange(cols.size, dtype=np.int64),
                        side="left",
                    )
                    set_accesses[cols] += per_col
                if chunk.max_depth:
                    miss_ls[:, cols] += miss_buf.sum(
                        axis=1, dtype=np.int64
                    )
                if sw_frames:
                    sw_all = np.concatenate(sw_frames, axis=1)
                    hit_all = np.concatenate(hit_frames, axis=1)
                    sel = np.where(
                        hit_all, pos_t.take(sw_all) + lane_k, L * k
                    )
                    depth_counts += np.bincount(
                        sel.ravel(), minlength=L * k + 1
                    )
        self.final_state = state
        misses = col_misses.reshape(L, -1, S).sum(axis=2)
        if trace.lengths is None:
            misses = misses[:, 0]
        if counters:
            self.counters = BatchCounters(
                L, S, k, warmup, trace.n, set_accesses, miss_ls,
                nfill.astype(np.int64), depth_counts[:L * k].reshape(L, k),
                depth_sample, misses.copy(),
            )
        if not collect_miss_indices:
            return misses
        indices: List[List[int]] = [[] for _ in range(L)]
        if miss_lanes:
            rows = np.concatenate(miss_lanes)
            gidx = np.concatenate(miss_gidx)
            order = np.lexsort((gidx, rows))
            rows = rows[order]
            gidx = gidx[order]
            bounds = np.searchsorted(rows, np.arange(L + 1))
            for lane in range(L):
                indices[lane] = gidx[bounds[lane]:bounds[lane + 1]].tolist()
        return misses, indices

    def _spill_tail(self, chunk, depth_cap, widths, st, tg, nf, cm,
                    warmup, collect):
        """Finish pathologically deep columns with a per-access loop.

        Past ``depth_cap`` every lockstep step is at most ``_SPILL_WIDTH``
        columns wide, so the numpy per-call overhead dwarfs the work.
        This walks the surviving columns' remaining entries one access at
        a time against the same tables — the scalar mirror of the
        vectorized orbit transition, so results stay bit-identical.
        Mutates the chunk-local ``st``, ``tg``, ``nf`` views in place and
        adds each column's measured misses to ``cm``; returns the
        (lane, gidx) pairs of those misses when ``collect`` is set.
        """
        t = self._tables
        k = self.assoc
        two_k = 2 * k
        offsets = chunk.step_offsets
        victim, pos, shift = t.base.victim, t.base.pos, t.shift
        keep_w, bits_w = t.keep.tolist(), t.base.path_bits
        rows: List[int] = []
        gidxs: List[int] = []
        # One bulk tolist() of the whole tail keeps the inner loop on
        # Python ints, like the scalar LUT simulator's feed loop.
        # Column ci is active on exactly the steps wider than ci
        # (widths are non-increasing), and its entry at step j sits at
        # ``offsets[j] + ci``.
        off0 = int(offsets[depth_cap])
        addrs = chunk.addr_by_step[off0:].tolist()
        gs = chunk.gidx_by_step[off0:].tolist()
        reps = chunk.rep_by_step[off0:].tolist()
        offs_rel = (offsets[depth_cap:-1] - off0).tolist()
        ncols = int(widths[depth_cap])
        col_depths = np.searchsorted(
            -widths, -np.arange(ncols, dtype=widths.dtype), side="left"
        ).tolist()
        for ci in range(ncols):
            steps_c = col_depths[ci] - depth_cap
            for lane in range(self.lanes):
                orbit, entry, cycle = t.orbits[t.lane_unique[lane]]
                s = int(st[lane, ci])
                tag_list = tg[lane, ci].tolist()
                nfv = int(nf[lane, ci])
                missed = 0
                for jr in range(steps_c):
                    o = offs_rel[jr] + ci
                    a = addrs[o]
                    g = gs[o]
                    r = reps[o]
                    try:
                        w = tag_list.index(a)
                    except ValueError:
                        if g >= warmup:
                            missed += 1
                            if collect:
                                rows.append(lane)
                                gidxs.append(g)
                        if nfv < k:
                            w = nfv
                            nfv += 1
                        else:
                            w = victim[s]
                        tag_list[w] = a
                        p0 = k
                    else:
                        p0 = pos[(s << shift) | w]
                    if r >= two_k:
                        e = entry[p0]
                        r = e + (r - e) % cycle[p0]
                    s = (s & keep_w[w]) | bits_w[w][orbit[p0][r]]
                st[lane, ci] = s
                tg[lane, ci] = tag_list
                nf[lane, ci] = nfv
                cm[lane, ci] += missed
        return rows, gidxs

    def positions(self, lane: int):
        """Recency positions ``[set, way]`` decoded from the final state
        of the most recent :meth:`run` (verification hook)."""
        state = self.final_state[lane]
        idx = (state[:, None] << self._tables.shift) | np.arange(
            self.assoc, dtype=np.int64
        )
        return self._tables.pos[idx]


def simulate_misses_plru_columnar(
    addresses: Sequence[int],
    num_sets: int,
    assoc: int,
    entries: Sequence[int],
    warmup: int,
    miss_indices: Optional[List[int]] = None,
    batch_accesses: Optional[int] = None,
) -> int:
    """Single-lane columnar twin of the scalar PLRU-IPV simulators.

    Bit-identical miss counts (and ``miss_indices`` contents) to
    ``kernel="walk"``/``"lut"``.
    """
    simulator = BatchSimulator(num_sets, assoc, [entries], warmup)
    trace = ColumnarTrace(addresses, num_sets, batch_accesses)
    if miss_indices is None:
        return int(simulator.run(trace)[0])
    misses, indices = simulator.run(trace, collect_miss_indices=True)
    miss_indices.extend(indices[0])
    return int(misses[0])

