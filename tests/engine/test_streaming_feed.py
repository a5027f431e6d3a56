"""Streaming ``feed`` conformance: chunked == one cold ``run``.

The serving front-end pushes bounded batches through persistent-state
simulators.  These cells pin the contract that chunking is invisible:
any partition of a trace fed through ``BatchSimulator.feed`` or
``ScalarStreamSimulator.feed`` produces measured miss counts (and final
recency state) bit-identical to a single cold pass over the whole trace.
"""

import random

import pytest

from repro.core.ipv import lip_ipv, lru_ipv
from repro.core.vectors import GIPPR_WI_VECTOR
from repro.engine import ScalarStreamSimulator
from repro.ga.fitness import simulate_misses_plru_ipv
from repro.verify import PLRUPositionsOracle

NUM_SETS = 16
ASSOC = 4
IPVS = {
    "lru": tuple(lru_ipv(ASSOC).entries),
    "lip": tuple(lip_ipv(ASSOC).entries),
    "skew": (1, 0, 1, 2, 2),
}


def make_stream(n, num_sets=NUM_SETS, assoc=ASSOC, seed=7):
    rng = random.Random(seed)
    footprint = 3 * num_sets * assoc
    return [rng.randrange(footprint) for _ in range(n)]


def _partitions(n):
    """A few representative chunkings of [0, n): uneven, tiny, one-shot."""
    return [
        [n],
        [1, n - 1],
        [n // 3, n // 3, n - 2 * (n // 3)],
        [17] * (n // 17) + ([n % 17] if n % 17 else []),
    ]


@pytest.mark.parametrize("name", sorted(IPVS))
@pytest.mark.parametrize("warmup", [0, 1000])
def test_scalar_feed_matches_one_shot(name, warmup):
    trace = make_stream(4000)
    entries = IPVS[name]
    expected_indices = []
    expected = simulate_misses_plru_ipv(
        trace, NUM_SETS, ASSOC, entries, warmup,
        miss_indices=expected_indices, kernel="walk",
    )
    for parts in _partitions(len(trace)):
        sim = ScalarStreamSimulator(NUM_SETS, ASSOC, entries, warmup)
        indices = []
        total = 0
        base = 0
        for size in parts:
            total += sim.feed(trace[base:base + size], indices)
            base += size
        assert total == expected
        assert indices == expected_indices
        assert sim.measured_misses == expected
        assert sim.accesses == len(trace)
        assert sim.hits + sim.misses == sim.accesses
        assert sim.cold_fills <= min(sim.misses, NUM_SETS * ASSOC)


def test_scalar_walk_and_lut_paths_agree():
    trace = make_stream(3000, seed=11)
    entries = IPVS["skew"]
    lut = ScalarStreamSimulator(NUM_SETS, ASSOC, entries, 100, kernel="lut")
    walk = ScalarStreamSimulator(NUM_SETS, ASSOC, entries, 100, kernel="walk")
    assert (lut.kernel, walk.kernel) == ("lut", "walk")
    lut_indices, walk_indices = [], []
    for base in range(0, len(trace), 333):
        chunk = trace[base:base + 333]
        assert lut.feed(chunk, lut_indices) == walk.feed(chunk, walk_indices)
    assert lut_indices == walk_indices
    assert lut.totals() == walk.totals()


def test_scalar_feed_k16_walk_kernel():
    trace = make_stream(1500, num_sets=64, assoc=16, seed=3)
    entries = tuple(GIPPR_WI_VECTOR.entries)
    sim = ScalarStreamSimulator(64, 16, entries, warmup=0, kernel="walk")
    assert sim.kernel == "walk"
    total = sum(
        sim.feed(trace[base:base + 500])
        for base in range(0, len(trace), 500)
    )
    expected = simulate_misses_plru_ipv(
        trace, 64, 16, entries, 0, kernel="lut"
    )
    assert total == expected


def test_scalar_feed_k32_miss_indices_match_oracle():
    # No tables above 16 ways: "auto" runs the walk, the only loop there.
    trace = make_stream(3000, num_sets=16, assoc=32, seed=13)
    sim = ScalarStreamSimulator(16, 32, lip_ipv(32).entries)
    assert sim.kernel == "walk"
    indices = []
    base = 0
    for size in (1, 498, 17, 1201, 1283):
        sim.feed(trace[base:base + size], indices)
        base += size
    assert base == len(trace)
    oracle = PLRUPositionsOracle(16, 32, [lip_ipv(32)])
    expected = [i for i, a in enumerate(trace) if not oracle.access(a)[0]]
    assert indices == expected
    assert sim.misses == oracle.misses


def test_scalar_reset_returns_to_cold():
    trace = make_stream(1200, seed=5)
    entries = IPVS["lru"]
    sim = ScalarStreamSimulator(NUM_SETS, ASSOC, entries)
    first = sim.feed(trace)
    sim.reset()
    assert (sim.pos, sim.accesses, sim.misses) == (0, 0, 0)
    assert sim.feed(trace) == first


def test_scalar_validation():
    with pytest.raises(ValueError):
        ScalarStreamSimulator(15, 4, IPVS["lru"])
    with pytest.raises(ValueError):
        ScalarStreamSimulator(16, 4, (0, 0, 0, 0))  # too short
    with pytest.raises(ValueError):
        ScalarStreamSimulator(16, 4, (0, 0, 0, 0, 4))  # out of range
    with pytest.raises(ValueError):
        ScalarStreamSimulator(16, 4, IPVS["lru"], warmup=-1)


@pytest.mark.parametrize("warmup", [0, 1000])
def test_columnar_feed_matches_cold_run(warmup):
    from repro.engine.columnar import BatchSimulator

    trace = make_stream(4000)
    lanes = list(IPVS.values())
    ref = BatchSimulator(NUM_SETS, ASSOC, lanes, warmup)
    expected = ref.run(trace)
    ref_positions = [ref.positions(i).tolist() for i in range(len(lanes))]
    for parts in _partitions(len(trace)):
        sim = BatchSimulator(NUM_SETS, ASSOC, lanes, warmup)
        total = None
        base = 0
        for size in parts:
            got = sim.feed(trace[base:base + size])
            total = got if total is None else total + got
            base += size
        assert total.tolist() == expected.tolist()
        assert sim.stream_misses().tolist() == expected.tolist()
        assert sim.stream_pos == len(trace)
        for i in range(len(lanes)):
            assert sim.positions(i).tolist() == ref_positions[i]
        assert sim.end_stream().tolist() == expected.tolist()


def test_columnar_feed_matches_scalar_stream():
    from repro.engine.columnar import BatchSimulator

    trace = make_stream(3000, seed=19)
    entries = IPVS["lip"]
    col = BatchSimulator(NUM_SETS, ASSOC, [entries], warmup=500)
    sca = ScalarStreamSimulator(NUM_SETS, ASSOC, entries, warmup=500)
    for base in range(0, len(trace), 700):
        chunk = trace[base:base + 700]
        assert int(col.feed(chunk)[0]) == sca.feed(chunk)
    assert int(col.stream_misses()[0]) == sca.measured_misses


def test_columnar_begin_stream_resets():
    from repro.engine.columnar import BatchSimulator

    trace = make_stream(900, seed=23)
    sim = BatchSimulator(NUM_SETS, ASSOC, [IPVS["lru"]])
    first = sim.feed(trace)
    sim.begin_stream()
    assert sim.stream_pos == 0
    assert sim.feed(trace).tolist() == first.tolist()


def test_columnar_run_unaffected_by_open_stream():
    # run() must stay cold-start even while a stream is open.
    from repro.engine.columnar import BatchSimulator

    trace = make_stream(1100, seed=29)
    sim = BatchSimulator(NUM_SETS, ASSOC, [IPVS["skew"]], warmup=100)
    cold = sim.run(trace)
    sim.feed(trace[:400])
    assert sim.run(trace).tolist() == cold.tolist()
    # ...and the stream position survives the interleaved run.
    assert sim.stream_pos == 400


def test_columnar_stream_misses_requires_open_stream():
    from repro.engine.columnar import BatchSimulator

    sim = BatchSimulator(NUM_SETS, ASSOC, [IPVS["lru"]])
    with pytest.raises(RuntimeError):
        sim.stream_misses()
