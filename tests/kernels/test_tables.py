"""Exhaustive and randomized equivalence tests for :mod:`repro.kernels`.

The LUT kernel is a memoization of the Figure 5/7/9 bit-walks — so the
tests here are equality proofs, not tolerance checks: every (state, way)
pair for every supported associativity, randomized access streams, and
policy-level CacheStats must match the reference bit for bit.
"""

import random

import pytest

from repro.cache import SetAssociativeCache
from repro.core.ipv import IPV
from repro.core.plru import find_plru, position, set_position
from repro.ga.fitness import simulate_misses_plru_ipv
from repro.kernels import (
    KERNEL_CACHE_CAPACITY,
    MAX_TABLE_ASSOC,
    clear_kernel_cache,
    compile_tables,
    kernel_cache_info,
    kernel_counters,
    kernel_provenance,
    record_kernel_call,
    reset_kernel_counters,
    resolve_kernel,
    tables_supported,
)
from repro.policies.plru import DGIPPRPolicy, GIPPRPolicy, TreePLRUPolicy

SUPPORTED_KS = [2, 4, 8, 16]


def scrambled_ipv(k, seed=3):
    rng = random.Random(seed * 1000 + k)
    return tuple(rng.randrange(k) for _ in range(k + 1))


def mixed_stream(n, num_sets, assoc, seed=11):
    rng = random.Random(seed)
    footprint = 2 * num_sets * assoc
    hot = max(1, num_sets * assoc // 2)
    return [
        rng.randrange(hot if rng.random() < 0.7 else footprint)
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# Exhaustive table equivalence against the Figure 5/7/9 reference walks.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", SUPPORTED_KS)
def test_victim_table_matches_figure5_exhaustively(k):
    tables = compile_tables(k)
    for state in range(1 << (k - 1)):
        assert tables.victim[state] == find_plru(state, k)


@pytest.mark.parametrize("k", SUPPORTED_KS)
def test_pos_table_matches_figure7_exhaustively(k):
    tables = compile_tables(k)
    shift = tables.log2k
    for state in range(1 << (k - 1)):
        base = state << shift
        for way in range(k):
            assert tables.pos[base | way] == position(state, way, k)


@pytest.mark.parametrize("k", SUPPORTED_KS)
def test_composed_hit_fill_match_figure9_exhaustively(k):
    entries = scrambled_ipv(k)
    promo, insert = entries[:k], entries[k]
    tables = compile_tables(k, entries)
    shift = tables.log2k
    for state in range(1 << (k - 1)):
        base = state << shift
        for way in range(k):
            pos = position(state, way, k)
            assert tables.hit[base | way] == set_position(
                state, way, promo[pos], k
            )
            assert tables.fill[base | way] == set_position(
                state, way, insert, k
            )


def test_classic_plru_is_all_zeros_vector():
    """``entries=None`` composes promote-to-PMRU: hit == fill tables."""
    tables = compile_tables(8)
    assert tables.entries == (0,) * 9
    assert tables.hit == tables.fill


# ----------------------------------------------------------------------
# Randomized stream equivalence (simulator level).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", SUPPORTED_KS)
def test_stream_misses_identical_walk_vs_lut(k):
    num_sets = 64
    entries = scrambled_ipv(k, seed=7)
    stream = mixed_stream(50_000, num_sets, k)
    warmup = 5_000
    walk_idx, lut_idx = [], []
    walk = simulate_misses_plru_ipv(
        stream, num_sets, k, entries, warmup,
        miss_indices=walk_idx, kernel="walk",
    )
    lut = simulate_misses_plru_ipv(
        stream, num_sets, k, entries, warmup,
        miss_indices=lut_idx, kernel="lut",
    )
    assert walk == lut
    assert walk_idx == lut_idx


def test_auto_kernel_matches_forced_paths():
    stream = mixed_stream(10_000, 32, 16, seed=2)
    entries = scrambled_ipv(16, seed=2)
    auto = simulate_misses_plru_ipv(stream, 32, 16, entries, 1_000)
    walk = simulate_misses_plru_ipv(
        stream, 32, 16, entries, 1_000, kernel="walk"
    )
    assert auto == walk


# ----------------------------------------------------------------------
# Policy-level equivalence: table-backed vs walk-backed policies.
# ----------------------------------------------------------------------
def _run_policy(policy, num_sets, assoc, seed=31):
    cache = SetAssociativeCache(num_sets, assoc, policy, block_size=1)
    for addr in mixed_stream(20_000, num_sets, assoc, seed=seed):
        cache.access(addr)
    snap = cache.stats.snapshot()
    snap.pop("mpki", None)  # NaN without instruction counts
    return snap


@pytest.mark.parametrize("assoc", [4, 16])
def test_gippr_policy_stats_identical_lut_vs_walk(assoc):
    ipv = IPV(scrambled_ipv(assoc, seed=13), name="t")
    walk = GIPPRPolicy(64, assoc, ipv=ipv, kernel="walk")
    lut = GIPPRPolicy(64, assoc, ipv=ipv, kernel="lut")
    assert walk.kernel_mode == "walk" and lut.kernel_mode == "lut"
    assert _run_policy(walk, 64, assoc) == _run_policy(lut, 64, assoc)


def test_plru_policy_stats_identical_lut_vs_walk():
    walk = TreePLRUPolicy(64, 16, kernel="walk")
    lut = TreePLRUPolicy(64, 16, kernel="lut")
    assert _run_policy(walk, 64, 16) == _run_policy(lut, 64, 16)


def test_dgippr_policy_stats_identical_lut_vs_walk():
    walk = DGIPPRPolicy(64, 16, kernel="walk")
    lut = DGIPPRPolicy(64, 16, kernel="lut")
    assert walk.kernel_mode == "walk" and lut.kernel_mode == "lut"
    assert _run_policy(walk, 64, 16) == _run_policy(lut, 64, 16)


@pytest.mark.parametrize("assoc", [4, 16])
def test_policy_positions_identical_lut_vs_walk(assoc):
    """position_of agrees on every way after an identical access history."""
    ipv = IPV(scrambled_ipv(assoc, seed=17), name="t")
    walk = GIPPRPolicy(16, assoc, ipv=ipv, kernel="walk")
    lut = GIPPRPolicy(16, assoc, ipv=ipv, kernel="lut")
    cache_w = SetAssociativeCache(16, assoc, walk, block_size=1)
    cache_l = SetAssociativeCache(16, assoc, lut, block_size=1)
    for addr in mixed_stream(5_000, 16, assoc, seed=41):
        cache_w.access(addr)
        cache_l.access(addr)
    for s in range(16):
        for w in range(assoc):
            assert walk.position_of(s, w) == lut.position_of(s, w)


# ----------------------------------------------------------------------
# Validation, support predicate, resolve semantics, cache bounds.
# ----------------------------------------------------------------------
def test_tables_supported_gate():
    for k in SUPPORTED_KS:
        assert tables_supported(k)
    assert not tables_supported(3)  # not a power of two
    assert not tables_supported(1)
    assert not tables_supported(2 * MAX_TABLE_ASSOC)


def test_compile_rejects_malformed_entries():
    with pytest.raises(ValueError):
        compile_tables(8, (0,) * 8)  # too short
    with pytest.raises(ValueError):
        compile_tables(8, (0,) * 10)  # too long
    with pytest.raises(ValueError):
        compile_tables(8, (0,) * 8 + (8,))  # V[k] out of range


def test_compile_validates_even_when_unsupported():
    # k=32 never compiles, but malformed vectors still raise.
    assert compile_tables(32, tuple([0] * 33)) is None
    with pytest.raises(ValueError):
        compile_tables(32, tuple([0] * 32 + [99]))


def test_simulator_validates_entries():
    with pytest.raises(ValueError):
        simulate_misses_plru_ipv([0, 1], 4, 4, (0, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        simulate_misses_plru_ipv([0, 1], 4, 4, (0, 0, 0, 0, 4), 0)


def test_resolve_kernel_semantics():
    assert resolve_kernel("walk", 16, None) is None
    assert resolve_kernel("auto", 16, None) is not None
    assert resolve_kernel("lut", 16, None) is not None
    # auto falls back silently on unsupported k; lut refuses.
    assert resolve_kernel("auto", 32, None) is None
    with pytest.raises(ValueError):
        resolve_kernel("lut", 32, None)
    with pytest.raises(ValueError):
        resolve_kernel("banana", 16, None)


def test_compile_cache_hits_and_eviction():
    clear_kernel_cache()
    reset_kernel_counters()
    first = compile_tables(4, (0, 1, 2, 3, 0))
    assert compile_tables(4, (0, 1, 2, 3, 0)) is first  # hit
    counters = kernel_counters()
    assert counters["cache_hits"] == 1
    assert counters["compiles"] >= 1
    # Overflow the LRU: the earliest vector must be evicted.
    for seed in range(KERNEL_CACHE_CAPACITY + 2):
        compile_tables(4, scrambled_ipv(4, seed=100 + seed))
    info = kernel_cache_info()
    assert info["size"] <= KERNEL_CACHE_CAPACITY
    assert compile_tables(4, (0, 1, 2, 3, 0)) is not first  # recompiled
    clear_kernel_cache()


def test_kernel_provenance_and_metrics_roundtrip():
    reset_kernel_counters()
    record_kernel_call("lut")
    record_kernel_call("walk")
    with pytest.raises(ValueError):
        record_kernel_call("vectorized")
    prov = kernel_provenance()
    assert prov["mode"] == "mixed"
    assert prov["counters"]["lut_calls"] == 1
    reset_kernel_counters()


def test_manifest_records_kernel_provenance():
    from repro.obs import build_manifest

    manifest = build_manifest()
    assert "kernels" in manifest
    assert manifest["kernels"]["max_table_assoc"] == MAX_TABLE_ASSOC
    assert set(manifest["kernels"]["counters"]) >= {
        "compiles", "lut_calls", "walk_calls",
    }


def test_table_memory_footprint_k16():
    """3 tables x 512K entries x 2 bytes + 64KB victim ~= 3.06 MiB."""
    tables = compile_tables(16, scrambled_ipv(16, seed=99))
    S = 1 << 15
    expected = 2 * (S + 3 * S * 16)
    assert tables.nbytes == expected
