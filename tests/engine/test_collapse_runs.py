"""Run-collapsed columnar traces are bit-identical to per-access ones.

``ColumnarTrace(collapse_runs=True)`` folds consecutive duplicate
addresses per set into ``(address, repeat)`` pairs and the kernel applies
each run as one transition via the promotion-orbit tables
(:func:`repro.kernels.tables.promotion_orbit`).  Everything observable —
miss counts, miss indices, final recency positions, streaming feeds —
must match the uncollapsed engine exactly, on every IPV shape including
cyclic promotion chains.
"""

import random

import pytest

from repro.core.ipv import lip_ipv, lru_ipv
from repro.core.plru import position, set_position
from repro.engine.columnar import BatchSimulator, ColumnarTrace
from repro.kernels.tables import base_tables, promotion_orbit

# IPV zoo: recency extremes, a pure promotion 4-cycle, a 2-cycle with a
# tail, and fixed-point-free shapes — the orbit table's hard cases.
IPVS4 = [
    tuple(lru_ipv(4).entries),
    tuple(lip_ipv(4).entries),
    (1, 2, 3, 0, 2),
    (1, 0, 1, 2, 2),
    (3, 3, 3, 3, 3),
    (0, 0, 2, 2, 1),
    (2, 3, 1, 1, 0),
]


def skewed_stream(n, num_sets=16, hot_share=0.4, seed=11):
    """A run-heavy stream: one hot key plus a modest random tail."""
    rng = random.Random(seed)
    tail = [rng.randrange(20 * num_sets) for _ in range(50)]
    out = []
    for _ in range(n):
        key = 7 if rng.random() < hot_share else rng.choice(tail)
        out.append((key * 2654435761) % (1 << 20))
    return out


# ----------------------------------------------------------------------
# The algebra the collapse rests on.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [2, 4, 8])
def test_path_write_identity(k):
    """set_position(s, w, x) == (s & ~mask[w]) | bits[w][x] for all s."""
    base = base_tables(k)
    mask, bits = base.path_mask, base.path_bits
    for s in range(1 << (k - 1)):
        for w in range(k):
            for x in range(k):
                assert set_position(s, w, x, k) == (
                    (s & ~mask[w]) | bits[w][x]
                )


@pytest.mark.parametrize("entries", IPVS4)
def test_promotion_orbit_matches_iteration(entries):
    """Rows 0..k-1 walk the promotion chain; row k starts from the
    virtual not-resident position k, whose one hop is the insertion."""
    k = 4
    orbit, entry, cycle = promotion_orbit(k, entries)
    promo = entries
    for p in range(k + 1):
        cur = p
        for n in range(50):  # well past every cycle closure
            if n < 2 * k:
                expect = orbit[p][n]
            else:
                expect = orbit[p][entry[p] + (n - entry[p]) % cycle[p]]
            assert expect == cur, (entries, p, n)
            cur = promo[cur]


def test_repeated_hits_walk_the_orbit():
    """n same-way hits leave the way at position promo^n(p0)."""
    k, entries = 4, (1, 2, 3, 0, 2)
    orbit, entry, cycle = promotion_orbit(k, entries)
    promo = entries[:k]
    state, way = 0b101, 2
    p0 = position(state, way, k)
    for n in range(1, 12):
        state = set_position(state, way, promo[position(state, way, k)], k)
        if n < 2 * k:
            expect = orbit[p0][n]
        else:
            expect = orbit[p0][entry[p0] + (n - entry[p0]) % cycle[p0]]
        assert position(state, way, k) == expect


# ----------------------------------------------------------------------
# Engine equivalence.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entries", IPVS4)
def test_collapsed_run_bit_identical(entries):
    stream = skewed_stream(20000)
    sim = BatchSimulator(16, 4, [entries], warmup=0)
    plain = sim.run(ColumnarTrace(stream, 16))
    pos_plain = sim.positions(0).copy()
    coll = sim.run(ColumnarTrace(stream, 16, collapse_runs=True))
    pos_coll = sim.positions(0)
    assert int(plain[0]) == int(coll[0])
    assert (pos_plain == pos_coll).all()


def test_collapsed_miss_indices_match():
    stream = skewed_stream(8000)
    sim = BatchSimulator(16, 4, [IPVS4[2]], warmup=1000)
    _, plain_idx = sim.run(
        ColumnarTrace(stream, 16), collect_miss_indices=True
    )
    _, coll_idx = sim.run(
        ColumnarTrace(stream, 16, collapse_runs=True),
        collect_miss_indices=True,
    )
    assert plain_idx[0] == coll_idx[0]


def test_collapsed_feed_stream_matches_cold_run():
    """Runs split across feed chunks still reconcile exactly."""
    stream = skewed_stream(30000)
    sim = BatchSimulator(16, 4, [IPVS4[2]], warmup=1234)
    one = int(sim.run(ColumnarTrace(stream, 16))[0])
    sim.begin_stream()
    total = 0
    for base in range(0, len(stream), 777):
        total += int(
            sim.feed(stream[base:base + 777], collapse_runs=True)[0]
        )
    assert total == one
    assert int(sim.end_stream()[0]) == one


def test_collapsed_multi_lane_with_duplicate_ipvs():
    stream = skewed_stream(15000)
    lanes = [IPVS4[0], IPVS4[2], IPVS4[0], IPVS4[4]]
    sim = BatchSimulator(16, 4, lanes, warmup=0)
    plain = sim.run(ColumnarTrace(stream, 16))
    coll = sim.run(ColumnarTrace(stream, 16, collapse_runs=True))
    assert (plain == coll).all()


def test_collapsed_k16_lane():
    stream = skewed_stream(20000, hot_share=0.5)
    entries = tuple(lru_ipv(16).entries)
    sim = BatchSimulator(64, 16, [entries], warmup=0)
    plain = sim.run(ColumnarTrace(stream, 64))
    coll = sim.run(ColumnarTrace(stream, 64, collapse_runs=True))
    assert int(plain[0]) == int(coll[0])


def test_collapse_shrinks_depth_on_skew():
    """The point of the feature: hot-key columns stop dominating depth."""
    stream = skewed_stream(60000, hot_share=0.6)
    plain = ColumnarTrace(stream, 16)
    coll = ColumnarTrace(stream, 16, collapse_runs=True)
    assert coll.n == plain.n  # n stays the *access* count
    plain_depth = max(c.max_depth for c in plain.chunks)
    coll_depth = max(c.max_depth for c in coll.chunks)
    assert coll_depth < plain_depth / 4


def test_counters_reject_collapsed_trace():
    stream = skewed_stream(2000)
    sim = BatchSimulator(16, 4, [IPVS4[0]], warmup=0)
    trace = ColumnarTrace(stream, 16, collapse_runs=True)
    with pytest.raises(ValueError, match="collapse_runs"):
        sim.run(trace, counters=True)


def test_empty_and_single_access_collapse():
    sim = BatchSimulator(16, 4, [IPVS4[0]], warmup=0)
    assert int(sim.run(ColumnarTrace([], 16, collapse_runs=True))[0]) == 0
    assert int(sim.run(ColumnarTrace([5], 16, collapse_runs=True))[0]) == 1


# ----------------------------------------------------------------------
# The scalar spill for interleaved hot keys.
# ----------------------------------------------------------------------
def interleaved_hot_stream(n, num_sets=64, seed=23):
    """Two hot keys in ONE set, strictly alternating, plus random noise.

    A,B,A,B interleaving is the collapse algebra's worst case: period-2
    repetition produces no runs at all, so that set's column stays
    thousands of entries deep after collapsing and exercises the scalar
    spill tail.
    """
    rng = random.Random(seed)
    hot_a = num_sets * 3 + 5  # same set index (5), distinct tags
    hot_b = num_sets * 9 + 5
    out = []
    flip = False
    for _ in range(n):
        if rng.random() < 0.7:
            out.append(hot_a if flip else hot_b)
            flip = not flip
        else:
            out.append(rng.randrange(40 * num_sets))
    return out


@pytest.mark.parametrize("entries", IPVS4)
def test_spill_tail_bit_identical(entries):
    """Deep interleaved columns spill scalar and still match exactly."""
    stream = interleaved_hot_stream(30000)
    sim = BatchSimulator(64, 4, [entries], warmup=500)
    plain, plain_idx = sim.run(
        ColumnarTrace(stream, 64), collect_miss_indices=True
    )
    pos_plain = sim.positions(0).copy()
    coll, coll_idx = sim.run(
        ColumnarTrace(stream, 64, collapse_runs=True),
        collect_miss_indices=True,
    )
    assert int(plain[0]) == int(coll[0])
    assert plain_idx[0] == coll_idx[0]
    assert (pos_plain == sim.positions(0)).all()


def test_spill_tail_multi_lane_k16():
    stream = interleaved_hot_stream(40000, num_sets=64)
    lanes = [tuple(lru_ipv(16).entries), tuple(lip_ipv(16).entries)]
    sim = BatchSimulator(64, 16, lanes, warmup=0)
    plain = sim.run(ColumnarTrace(stream, 64))
    coll = sim.run(ColumnarTrace(stream, 64, collapse_runs=True))
    assert (plain == coll).all()


def test_spill_triggers_on_interleaved_hot_keys():
    """The guard itself: this workload must actually take the spill."""
    import repro.engine.columnar as columnar

    stream = interleaved_hot_stream(30000)
    trace = ColumnarTrace(stream, 64, collapse_runs=True)
    depth = max(c.max_depth for c in trace.chunks)
    assert depth > columnar._SPILL_MIN_CAP + columnar._SPILL_MIN_STEPS
    sim = BatchSimulator(64, 4, [IPVS4[0]], warmup=0)
    calls = []
    original = sim._spill_tail

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(sum(result[0]))
        return result

    sim._spill_tail = spy
    sim.run(trace)
    assert calls, "interleaved hot keys must route through the spill"
