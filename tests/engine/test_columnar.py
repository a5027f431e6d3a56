"""Bit-identity and behaviour tests for :mod:`repro.engine.columnar`.

The columnar engine's contract is *exactness*, not approximation: every
miss count, miss index and final recency position must match the scalar
walk reference bit for bit — across associativities, ragged chunk tails,
warmup windows and duplicate lanes.  These tests are therefore equality
proofs over randomized and adversarial streams, plus the bad-input error
contract.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SetAssociativeCache
from repro.core.ipv import IPV, lip_ipv, lru_ipv
from repro.engine.columnar import (
    DEFAULT_BATCH_ACCESSES,
    BatchSimulator,
    ColumnarTrace,
    _hit_decoder,
    simulate_misses_plru_columnar,
)
from repro.engine.scalar import ScalarStreamSimulator
from repro.ga.fitness import simulate_misses_plru_ipv
from repro.kernels import tables as ktables
from repro.policies import GIPPRPolicy

GEOMETRIES = [(16, 2), (8, 4), (8, 8), (4, 16)]


def stress_ipv(k, salt=7):
    rng = random.Random(salt + k)
    return tuple(rng.randrange(k) for _ in range(k + 1))


def make_stream(n, num_sets, assoc, seed, skew=False):
    rng = random.Random(seed)
    footprint = 3 * num_sets * assoc
    if skew:
        # Hammer one set: the deepest column dwarfs the rest, the worst
        # case for the prefix-width scheduling.
        return [
            (rng.randrange(footprint) & ~(num_sets - 1))
            if rng.random() < 0.8 else rng.randrange(footprint)
            for _ in range(n)
        ]
    return [rng.randrange(footprint) for _ in range(n)]


class TestSingleLaneIdentity:
    @pytest.mark.parametrize("num_sets,assoc", GEOMETRIES)
    @pytest.mark.parametrize("skew", [False, True])
    def test_misses_match_walk_and_lut(self, num_sets, assoc, skew):
        stream = make_stream(4000, num_sets, assoc, seed=assoc, skew=skew)
        for entries in (
            tuple(lru_ipv(assoc).entries),
            tuple(lip_ipv(assoc).entries),
            stress_ipv(assoc),
        ):
            walk = simulate_misses_plru_ipv(
                stream, num_sets, assoc, entries, 400, kernel="walk"
            )
            lut = simulate_misses_plru_ipv(
                stream, num_sets, assoc, entries, 400, kernel="lut"
            )
            col = simulate_misses_plru_columnar(
                stream, num_sets, assoc, entries, 400
            )
            assert col == walk == lut

    @pytest.mark.parametrize("batch", [1, 37, 256, 1 << 16])
    def test_ragged_chunk_tails(self, batch):
        """Chunk size must never affect results (incl. batch=1)."""
        num_sets, assoc = 8, 8
        stream = make_stream(1500, num_sets, assoc, seed=5)
        entries = stress_ipv(assoc)
        walk = simulate_misses_plru_ipv(
            stream, num_sets, assoc, entries, 100, kernel="walk"
        )
        col = simulate_misses_plru_columnar(
            stream, num_sets, assoc, entries, 100, batch_accesses=batch
        )
        assert col == walk

    @pytest.mark.parametrize("warmup", [0, 1, 999, 2999])
    def test_warmup_windows(self, warmup):
        num_sets, assoc = 8, 4
        stream = make_stream(3000, num_sets, assoc, seed=11)
        entries = stress_ipv(assoc)
        walk = simulate_misses_plru_ipv(
            stream, num_sets, assoc, entries, warmup, kernel="walk"
        )
        col = simulate_misses_plru_columnar(
            stream, num_sets, assoc, entries, warmup
        )
        assert col == walk

    def test_miss_indices_match_walk(self):
        num_sets, assoc = 8, 8
        stream = make_stream(2500, num_sets, assoc, seed=3)
        entries = stress_ipv(assoc)
        walk_idx, col_idx = [], []
        walk = simulate_misses_plru_ipv(
            stream, num_sets, assoc, entries, 200,
            kernel="walk", miss_indices=walk_idx,
        )
        col = simulate_misses_plru_columnar(
            stream, num_sets, assoc, entries, 200,
            miss_indices=col_idx, batch_accesses=193,
        )
        assert col == walk
        assert col_idx == walk_idx
        assert len(col_idx) == col

    def test_positions_match_policy(self):
        """Final recency state decodes to the scalar policy's positions."""
        num_sets, assoc = 8, 8
        stream = make_stream(2000, num_sets, assoc, seed=21)
        entries = stress_ipv(assoc)
        simulator = BatchSimulator(num_sets, assoc, [entries])
        simulator.run(stream)
        policy = GIPPRPolicy(
            num_sets, assoc, ipv=IPV(list(entries), name="t"), kernel="walk"
        )
        cache = SetAssociativeCache(num_sets, assoc, policy, block_size=1)
        for a in stream:
            cache.access(a)
        pos = simulator.positions(0)
        for s in range(num_sets):
            for w in range(assoc):
                assert int(pos[s, w]) == policy.position_of(s, w)


class TestMultiLane:
    def test_lanes_match_scalar_including_duplicates(self):
        num_sets, assoc = 8, 8
        stream = make_stream(3000, num_sets, assoc, seed=8)
        lanes = [
            tuple(lru_ipv(assoc).entries),
            stress_ipv(assoc),
            tuple(lru_ipv(assoc).entries),  # duplicate: shares tables
            tuple(lip_ipv(assoc).entries),
        ]
        simulator = BatchSimulator(num_sets, assoc, lanes, warmup=300)
        assert simulator._tables.unique == 3  # duplicate lane deduped
        trace = ColumnarTrace(stream, num_sets, batch_accesses=193)
        misses = simulator.run(trace)
        for i, entries in enumerate(lanes):
            walk = simulate_misses_plru_ipv(
                stream, num_sets, assoc, entries, 300, kernel="walk"
            )
            assert int(misses[i]) == walk

    def test_trace_reuse_across_populations(self):
        num_sets, assoc = 8, 4
        stream = make_stream(1200, num_sets, assoc, seed=13)
        trace = ColumnarTrace(stream, num_sets)
        first = BatchSimulator(num_sets, assoc, [stress_ipv(assoc)])
        second = BatchSimulator(num_sets, assoc, [stress_ipv(assoc, salt=9)])
        m1 = int(first.run(trace)[0])
        m2 = int(second.run(trace)[0])
        assert m1 == simulate_misses_plru_ipv(
            stream, num_sets, assoc, stress_ipv(assoc), 0, kernel="walk"
        )
        assert m2 == simulate_misses_plru_ipv(
            stream, num_sets, assoc, stress_ipv(assoc, salt=9), 0,
            kernel="walk",
        )

    def test_population_lanes_compile_nothing(self):
        """A ga-plru initial population (120 distinct k=16 vectors) is
        built from the shared per-k tables: no per-IPV compile, and a
        few MiB at most where per-lane tables took ~6 MiB a vector."""
        rng = random.Random(120)
        lanes = set()
        while len(lanes) < 120:
            lanes.add(tuple(rng.randrange(16) for _ in range(17)))
        compiles = ktables.kernel_counters()["compiles"]
        tracemalloc.start()
        try:
            simulator = BatchSimulator(64, 16, sorted(lanes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert simulator._tables.unique == 120
        assert ktables.kernel_counters()["compiles"] == compiles
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("collapse", [False, True])
    def test_fill_counts_are_per_set(self, collapse):
        """A set with a free way has evicted nothing in any lane, so every
        lane holds the same number of lines in it: the one fill count
        per set that the engine keeps, after a run and a chunked feed."""
        num_sets, assoc = 16, 8
        rng = random.Random(29)
        # Set s draws from s + 1 keys, mostly the first, often repeated:
        # most sets end partly filled, a few full and evicting.
        stream = []
        while len(stream) < 6000:
            s = min(int(rng.expovariate(0.15)), num_sets - 1)
            key = s + num_sets * min(int(rng.expovariate(0.7)), s)
            stream.extend([key] * rng.choice([1, 1, 2, 5]))
        lanes = [stress_ipv(assoc, salt=salt) for salt in range(5)]
        lanes.append(lanes[1])  # duplicate IPV
        resident = []
        for entries in lanes:
            walk = ScalarStreamSimulator(num_sets, assoc, entries,
                                         kernel="walk")
            walk.feed(stream)
            resident.append([len(ways) for ways in walk._tag_to_way])
        assert all(lines == resident[0] for lines in resident)
        assert min(resident[0]) < assoc == max(resident[0])
        simulator = BatchSimulator(num_sets, assoc, lanes)
        simulator.run(ColumnarTrace(stream, num_sets, batch_accesses=1000,
                                    collapse_runs=collapse))
        assert simulator.final_fills.tolist() == resident[0]
        for base in range(0, len(stream), 777):
            simulator.feed(stream[base:base + 777], batch_accesses=300,
                           collapse_runs=collapse)
        assert simulator._stream["nfill"].tolist() == resident[0]

    def test_multi_lane_miss_indices(self):
        num_sets, assoc = 8, 4
        stream = make_stream(1500, num_sets, assoc, seed=17)
        lanes = [stress_ipv(assoc), tuple(lru_ipv(assoc).entries)]
        simulator = BatchSimulator(num_sets, assoc, lanes, warmup=100)
        misses, indices = simulator.run(
            ColumnarTrace(stream, num_sets, batch_accesses=101),
            collect_miss_indices=True,
        )
        for i, entries in enumerate(lanes):
            walk_idx = []
            walk = simulate_misses_plru_ipv(
                stream, num_sets, assoc, entries, 100,
                kernel="walk", miss_indices=walk_idx,
            )
            assert int(misses[i]) == walk
            assert indices[i] == walk_idx


def segment_streams(lengths, num_sets, assoc, seed):
    """Streams over one shared footprint, each with its own pair of hot
    keys: runs to collapse, interleaved keys, and equal addresses in
    different streams (and so in different columns)."""
    rng = random.Random(seed)
    footprint = 3 * num_sets * assoc
    streams = []
    for n in lengths:
        hot = [rng.randrange(footprint) for _ in range(2)]
        streams.append([
            rng.choice(hot) if rng.random() < 0.6 else rng.randrange(footprint)
            for _ in range(n)
        ])
    return streams


def assert_matches_one_run_per_stream(simulator, trace, streams):
    """Per-lane, per-stream misses and final positions of one segmented
    run equal a run over each stream alone."""
    misses = simulator.run(trace)
    assert misses.shape == (simulator.lanes, len(streams))
    positions = [simulator.positions(lane) for lane in range(simulator.lanes)]
    S = simulator.num_sets
    for t, stream in enumerate(streams):
        assert misses[:, t].tolist() == simulator.run(stream).tolist()
        for lane in range(simulator.lanes):
            assert (positions[lane][t * S:(t + 1) * S]
                    == simulator.positions(lane)).all()


class TestSegmented:
    """Several streams binned side by side in one ColumnarTrace."""

    @settings(deadline=None, max_examples=120)
    @given(
        lengths=st.lists(st.integers(0, 300), min_size=1, max_size=6,
                         unique=True),
        assoc=st.sampled_from([2, 4, 8, 16]),
        num_sets=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=30),
        collapse=st.booleans(),
        warmup_share=st.floats(0.0, 1.0),
        batch=st.sampled_from([None, 97, 256]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_one_run_per_stream(self, lengths, assoc, num_sets,
                                        picks, collapse, warmup_share,
                                        batch, seed):
        streams = segment_streams(lengths, num_sets, assoc, seed)
        pool = [stress_ipv(assoc, salt) for salt in range(4)]
        lanes = [pool[p] for p in picks]  # duplicates included
        warmup = int(warmup_share * max(lengths))
        simulator = BatchSimulator(num_sets, assoc, lanes, warmup)
        trace = ColumnarTrace(streams, num_sets, batch, collapse_runs=collapse)
        assert trace.lengths == tuple(lengths)
        assert trace.columns == num_sets * len(streams)
        assert_matches_one_run_per_stream(simulator, trace, streams)

    def test_runs_end_where_the_column_changes(self):
        """One set: stream 0's column ends in address 7 and stream 1's
        starts with it.  Merged into one run, stream 1 would lose its
        cold miss on 7."""
        streams = [[5, 6, 7, 7], [7, 7, 8]]
        simulator = BatchSimulator(1, 2, [(0, 0, 1), (1, 1, 0)])
        trace = ColumnarTrace(streams, 1, collapse_runs=True)
        assert sum(c.addr_by_step.size for c in trace.chunks) == 5
        assert simulator.run(trace).tolist() == [[3, 2], [3, 2]]
        assert_matches_one_run_per_stream(simulator, trace, streams)

    def test_interleaved_hot_keys_spill(self, monkeypatch):
        """Two hot keys alternating in one set keep that column deep
        after collapsing, so a segmented run takes the scalar spill."""
        spilled = []
        spill_tail = BatchSimulator._spill_tail

        def spy(self, *args, **kwargs):
            spilled.append(self.lanes)
            return spill_tail(self, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "_spill_tail", spy)
        rng = random.Random(5)
        streams = []
        for n in (3000, 1700, 2400):
            hot = [64 * rng.randrange(1, 9) + 5 for _ in range(2)]
            streams.append([
                hot[i % 2] if rng.random() < 0.7 else rng.randrange(2560)
                for i in range(n)
            ])
        lanes = [stress_ipv(4, salt) for salt in range(3)]
        simulator = BatchSimulator(64, 4, lanes, warmup=400)
        trace = ColumnarTrace(streams, 64, collapse_runs=True)
        simulator.run(trace)
        assert spilled == [3]
        assert_matches_one_run_per_stream(simulator, trace, streams)

    def test_rejects_miss_indices_counters_and_feed(self):
        trace = ColumnarTrace([[1, 2], [3]], 4)
        simulator = BatchSimulator(4, 2, [(0, 0, 1)])
        with pytest.raises(ValueError, match="need one stream"):
            simulator.run(trace, collect_miss_indices=True)
        for streams in (trace, [[1, 2], [3]]):
            with pytest.raises(ValueError, match="one address stream"):
                simulator.feed(streams)


def compare_rows(k, lanes, dtype, seed):
    """Crafted ``[lanes, w, k]`` tag compares, as one lockstep step sees.

    The columns cover a hit at every way of a full set, the all-miss
    full set, and for every cold fill count ``n < k`` (the other ways
    still holding -1) a miss plus a hit at each filled way.  Lane 0 takes
    the cases in order; every other lane a shuffle, so one step mixes
    them.  Tags in a row are unique and never equal the -1 cold marker,
    exactly like a set's resident tags.
    """
    cases = [(k, b) for b in range(k)] + [(k, None)]
    for filled in range(k):
        cases += [(filled, None)] + [(filled, b) for b in range(filled)]
    rng = random.Random(seed)
    low = (1 << 31) + 5 if dtype == "int64" else 5
    addr = np.arange(len(cases), dtype=dtype) * (4 * k) + low
    tags = np.full((lanes, len(cases), k), -1, dtype=dtype)
    for lane in range(lanes):
        order = list(range(len(cases)))
        if lane:
            rng.shuffle(order)
        for col, case in enumerate(order):
            filled, hit = cases[case]
            # Distinct non-addresses: addr + 1 .. addr + filled.
            resident = [int(addr[col]) + 1 + i for i in range(filled)]
            if hit is not None:
                resident[hit] = int(addr[col])
            tags[lane, col, :filled] = resident
    return tags == addr[None, :, None]


class TestHitDecoder:
    """The lockstep step's word-view hit decode against any/argmax."""

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    @pytest.mark.parametrize("lanes", [1, 24])
    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    def test_matches_any_argmax(self, k, lanes, dtype):
        eq = compare_rows(k, lanes, dtype, seed=k + lanes)
        # A miss takes the caller's fill way; a sentinel exposes any miss
        # the decode reports as a way-0 hit.
        miss_way = np.full(eq.shape[:2], -7, dtype=np.int64)
        is_hit, way = _hit_decoder(k)(eq, miss_way)
        expect_hit = eq.any(axis=-1)
        assert is_hit.dtype == bool and way.dtype == np.int64
        assert np.array_equal(is_hit, expect_hit)
        assert np.array_equal(
            way, np.where(expect_hit, eq.argmax(axis=-1), miss_way)
        )
        # Every way is hit somewhere, way 0 included, and misses occur.
        assert set(way[is_hit].tolist()) == set(range(k))
        assert (~is_hit).any()


class TestValidation:
    def test_bad_geometry(self):
        with pytest.raises(ValueError, match="power of two"):
            BatchSimulator(12, 4, [stress_ipv(4)])
        with pytest.raises(ValueError, match="unsupported"):
            BatchSimulator(16, 32, [stress_ipv(32)])

    def test_empty_lanes(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchSimulator(16, 4, [])

    @pytest.mark.parametrize("bad,match", [
        ((0, 0, 0, 0), r"needs 5 entries, got 4"),
        ((0, 0, 4, 0, 0), r"V\[2\]=4 out of range"),
        ((0, 0, 0, -1, 0), r"V\[3\]=-1 out of range"),
    ])
    def test_malformed_lanes(self, bad, match):
        """k entries, an entry equal to k, a negative entry: each lane is
        checked before it is simulated."""
        good = tuple(lru_ipv(4).entries)
        with pytest.raises(ValueError, match=match):
            BatchSimulator(16, 4, [good, bad])

    def test_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            BatchSimulator(16, 4, [stress_ipv(4)], warmup=-1)

    def test_trace_set_mismatch(self):
        trace = ColumnarTrace([1, 2, 3], 16)
        simulator = BatchSimulator(8, 4, [stress_ipv(4)])
        with pytest.raises(ValueError, match="binned for 16 sets"):
            simulator.run(trace)

    def test_trace_rejects_bad_input(self):
        with pytest.raises(ValueError, match="power of two"):
            ColumnarTrace([1], 12)
        with pytest.raises(ValueError, match="non-negative"):
            ColumnarTrace([-1], 16)
        with pytest.raises(ValueError, match="batch_accesses"):
            ColumnarTrace([1], 16, batch_accesses=0)

    def test_empty_trace(self):
        simulator = BatchSimulator(16, 4, [stress_ipv(4)])
        misses = simulator.run(ColumnarTrace([], 16))
        assert int(misses[0]) == 0


class TestConfigResolution:
    """The chunk size: ``batch_accesses`` or :data:`DEFAULT_BATCH_ACCESSES`."""

    def test_defaults(self):
        assert ColumnarTrace([1, 2, 3], 16).batch_accesses == (
            DEFAULT_BATCH_ACCESSES
        )

    def test_trace_chunks_by_batch_accesses(self):
        trace = ColumnarTrace(list(range(20)), 16, batch_accesses=8)
        assert trace.batch_accesses == 8
        assert len(trace.chunks) == 3  # 8 + 8 + ragged 4
        explicit = ColumnarTrace(list(range(20)), 16, batch_accesses=16)
        assert explicit.batch_accesses == 16
        assert len(explicit.chunks) == 2

    def test_invalid_kwarg_raises(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="batch_accesses"):
                ColumnarTrace([1, 2], 16, batch_accesses=bad)

    def test_chunking_is_bit_identical(self):
        """The chunk size is a memory/throughput knob, never a result knob."""
        addresses = make_stream(600, 16, 4, seed=3)
        lanes = [stress_ipv(4), lru_ipv(4)]
        simulator = BatchSimulator(16, 4, lanes, warmup=50)
        baseline = list(simulator.run(ColumnarTrace(addresses, 16)))
        chunked = ColumnarTrace(addresses, 16, batch_accesses=64)
        assert list(simulator.run(chunked)) == baseline
