"""Bit-identity and behaviour tests for :mod:`repro.engine.columnar`.

The columnar engine's contract is *exactness*, not approximation: every
miss count, miss index, final recency position and PSEL value must match
the scalar walk reference bit for bit — across associativities, ragged
chunk tails, warmup windows, duplicate lanes and set-dueling.  These
tests are therefore equality proofs over randomized and adversarial
streams, plus the no-numpy / bad-input error contract.
"""

import random
import tracemalloc

import pytest

from repro.cache import SetAssociativeCache
from repro.core.ipv import IPV, lip_ipv, lru_ipv
from repro.engine.columnar import (
    DEFAULT_AUTO_MIN_LANES,
    DEFAULT_BATCH_ACCESSES,
    BatchSimulator,
    ColumnarTrace,
    ColumnarUnavailable,
    DuelBatchSimulator,
    _hit_decoder,
    columnar_config,
    columnar_supported,
    require_numpy,
    resolve_batch_accesses,
    resolve_min_lanes,
    simulate_misses_plru_columnar,
)
from repro.ga.fitness import simulate_misses_plru_ipv
from repro.kernels import tables as ktables
from repro.policies import DGIPPRPolicy, GIPPRPolicy

numpy_missing = ktables.numpy_or_none() is None
needs_numpy = pytest.mark.skipif(
    numpy_missing, reason="columnar engine requires numpy"
)

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


@needs_numpy
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


@needs_numpy
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


def compare_rows(np, k, lanes, dtype, seed):
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


@needs_numpy
class TestHitDecoder:
    """The lockstep step's word-view hit decode against any/argmax."""

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    @pytest.mark.parametrize("lanes", [1, 24])
    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    def test_matches_any_argmax(self, k, lanes, dtype):
        np = require_numpy()
        eq = compare_rows(np, k, lanes, dtype, seed=k + lanes)
        # A miss takes the caller's fill way; a sentinel exposes any miss
        # the decode reports as a way-0 hit.
        miss_way = np.full(eq.shape[:2], -7, dtype=np.int64)
        is_hit, way = _hit_decoder(np, k)(eq, miss_way)
        expect_hit = eq.any(axis=-1)
        assert is_hit.dtype == bool and way.dtype == np.int64
        assert np.array_equal(is_hit, expect_hit)
        assert np.array_equal(
            way, np.where(expect_hit, eq.argmax(axis=-1), miss_way)
        )
        # Every way is hit somewhere, way 0 included, and misses occur.
        assert set(way[is_hit].tolist()) == set(range(k))
        assert (~is_hit).any()


@needs_numpy
class TestDuelBatch:
    @pytest.mark.parametrize("num_sets,assoc", [(16, 4), (16, 16)])
    def test_matches_dgippr_policy(self, num_sets, assoc):
        stream = make_stream(3000, num_sets, assoc, seed=assoc + 1)
        pairs = [
            (tuple(lru_ipv(assoc).entries), tuple(lip_ipv(assoc).entries)),
            (tuple(lip_ipv(assoc).entries), stress_ipv(assoc, salt=9)),
        ]
        simulator = DuelBatchSimulator(num_sets, assoc, pairs)
        misses = simulator.run(stream, warmup=300)
        for lane, (a, b) in enumerate(pairs):
            policy = DGIPPRPolicy(
                num_sets, assoc,
                ipvs=[IPV(list(a), name="a"), IPV(list(b), name="b")],
                kernel="walk",
            )
            cache = SetAssociativeCache(num_sets, assoc, policy, block_size=1)
            for addr in stream[:300]:
                cache.access(addr)
            cache.reset_stats()
            for addr in stream[300:]:
                cache.access(addr)
            assert int(misses[lane]) == cache.stats.misses
            # PSEL is global-order state: its final value must agree too.
            assert int(simulator.psel[lane]) == policy.selector.psel.value

    def test_each_lane_needs_two_ipvs(self):
        with pytest.raises(ValueError):
            DuelBatchSimulator(16, 4, [])


@needs_numpy
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
        checked before it is simulated, batch and duel alike."""
        good = tuple(lru_ipv(4).entries)
        with pytest.raises(ValueError, match=match):
            BatchSimulator(16, 4, [good, bad])
        with pytest.raises(ValueError, match=match):
            DuelBatchSimulator(16, 4, [(good, bad)])

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
    """Chunk-size / auto-batch knobs: kwarg > environment > default."""

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_COLUMNAR_BATCH_ACCESSES", raising=False)
        monkeypatch.delenv("REPRO_COLUMNAR_MIN_LANES", raising=False)
        assert resolve_batch_accesses() == DEFAULT_BATCH_ACCESSES
        assert resolve_min_lanes() == DEFAULT_AUTO_MIN_LANES
        assert columnar_config() == {
            "batch_accesses": DEFAULT_BATCH_ACCESSES,
            "min_lanes": DEFAULT_AUTO_MIN_LANES,
        }

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BATCH_ACCESSES", "2048")
        monkeypatch.setenv("REPRO_COLUMNAR_MIN_LANES", "9")
        assert resolve_batch_accesses() == 2048
        assert resolve_min_lanes() == 9
        assert columnar_config() == {"batch_accesses": 2048, "min_lanes": 9}

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BATCH_ACCESSES", "2048")
        monkeypatch.setenv("REPRO_COLUMNAR_MIN_LANES", "9")
        assert resolve_batch_accesses(512) == 512
        assert resolve_min_lanes(2) == 2

    @pytest.mark.parametrize("raw", ["", "  ", "abc", "0", "-5", "1.5"])
    def test_invalid_env_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_COLUMNAR_BATCH_ACCESSES", raw)
        monkeypatch.setenv("REPRO_COLUMNAR_MIN_LANES", raw)
        assert resolve_batch_accesses() == DEFAULT_BATCH_ACCESSES
        assert resolve_min_lanes() == DEFAULT_AUTO_MIN_LANES

    def test_invalid_kwarg_raises(self):
        with pytest.raises(ValueError, match="batch_accesses"):
            resolve_batch_accesses(0)
        with pytest.raises(ValueError, match="min_lanes"):
            resolve_min_lanes(-1)

    def test_caller_default_for_min_lanes(self, monkeypatch):
        monkeypatch.delenv("REPRO_COLUMNAR_MIN_LANES", raising=False)
        assert resolve_min_lanes(default=7) == 7
        monkeypatch.setenv("REPRO_COLUMNAR_MIN_LANES", "3")
        assert resolve_min_lanes(default=7) == 3

    @pytest.mark.skipif(numpy_missing, reason="columnar engine needs numpy")
    def test_trace_resolves_chunk_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BATCH_ACCESSES", "8")
        trace = ColumnarTrace(list(range(20)), 16)
        assert trace.batch_accesses == 8
        assert len(trace.chunks) == 3  # 8 + 8 + ragged 4
        explicit = ColumnarTrace(list(range(20)), 16, batch_accesses=16)
        assert explicit.batch_accesses == 16
        assert len(explicit.chunks) == 2

    @pytest.mark.skipif(numpy_missing, reason="columnar engine needs numpy")
    def test_chunking_is_bit_identical(self, monkeypatch):
        """The chunk size is a memory/throughput knob, never a result knob."""
        addresses = make_stream(600, 16, 4, seed=3)
        lanes = [stress_ipv(4), lru_ipv(4)]
        simulator = BatchSimulator(16, 4, lanes, warmup=50)
        baseline = list(simulator.run(ColumnarTrace(addresses, 16)))
        monkeypatch.setenv("REPRO_COLUMNAR_BATCH_ACCESSES", "64")
        assert list(simulator.run(ColumnarTrace(addresses, 16))) == baseline


class TestNoNumpy:
    """Without numpy the engine must refuse loudly, never degrade."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(ktables, "_np", None)

    def test_require_numpy_raises(self, no_numpy):
        with pytest.raises(ColumnarUnavailable, match="requires numpy"):
            require_numpy()

    def test_supported_is_false(self, no_numpy):
        assert not columnar_supported(4)

    def test_simulator_raises_clearly(self, no_numpy):
        with pytest.raises(ColumnarUnavailable, match="REPRO_FORCE_NO_NUMPY"):
            BatchSimulator(16, 4, [stress_ipv(4)])
        with pytest.raises(ColumnarUnavailable):
            ColumnarTrace([1, 2], 16)
        with pytest.raises(ColumnarUnavailable):
            DuelBatchSimulator(16, 4, [(stress_ipv(4), stress_ipv(4, 9))])

    def test_fitness_kernel_columnar_raises(self, no_numpy):
        with pytest.raises(ColumnarUnavailable):
            simulate_misses_plru_ipv(
                [1, 2, 3], 16, 4, (0,) * 5, 0, kernel="columnar"
            )
