#!/usr/bin/env python3
"""Cache-dynamics analytics smoke check (``make smoke-analytics``).

Exercises ``repro.obs.analytics`` end to end and asserts:

1. the vectorized Mattson profiler is **bit-identical** to the
   ``repro.trace.analysis`` oracles — global stack-distance histogram,
   per-set stack histograms, and the PDP reuse histogram — on a
   randomized mixed hit/miss stream, and its miss curve is sane
   (monotone non-increasing, anchored at ``misses(0) == accesses`` and
   ``misses(footprint) == cold misses``);
2. the same bit-equality holds on a synthetic SPEC-archetype trace
   (``462.libquantum``), i.e. on the streams experiments actually use;
3. columnar :class:`BatchSimulator` counters **reconcile exactly** with
   a scalar ``GIPPRPolicy`` + ``SetAssociativeCache`` run of every lane
   (accesses/hits/misses/evictions via
   :func:`repro.obs.analytics.reconcile_with_stats`), miss counts are
   unchanged by enabling counters, and ``measured_misses`` carries the
   warmup-filtered view;
4. the **counters-enabled overhead budget** holds: ``counters=True``
   costs at most 5 % over a plain columnar run (min-of-N interleaved
   timing via :func:`repro.obs.overhead.measure_counters_overhead`).

Exits non-zero on any failure.
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.analytics import profile_trace  # noqa: E402
from repro.trace.analysis import (  # noqa: E402
    per_set_reuse_histogram,
    stack_distance_histogram,
)
from repro.trace.record import Trace  # noqa: E402

OVERHEAD_BUDGET = 1.05

BENCHMARK = "462.libquantum"
NUM_SETS = 16
ASSOC = 8
LENGTH = 6_000


def make_stream(accesses, num_sets, assoc, seed=5):
    """Mixed hit/miss stream over ~2x the cache footprint."""
    rng = random.Random(seed)
    footprint = 2 * num_sets * assoc
    hot = num_sets * assoc // 2
    return [
        rng.randrange(hot) if rng.random() < 0.7 else rng.randrange(footprint)
        for _ in range(accesses)
    ]


def check_profile_matches_oracle(label, addresses, num_sets, max_distance=64):
    trace = Trace(list(addresses), name=f"smoke-{label}")
    profile = profile_trace(
        addresses, num_sets=num_sets, max_distance=max_distance
    )
    oracle = stack_distance_histogram(trace, max_distance=max_distance)
    assert profile.stack_distance_histogram() == oracle, (
        f"{label}: global stack-distance histogram diverges from oracle"
    )
    reuse = per_set_reuse_histogram(trace, num_sets)
    assert profile.per_set_reuse_histogram() == reuse, (
        f"{label}: per-set reuse histogram diverges from oracle"
    )
    # Per-set stack histograms against the oracle run on each subsequence.
    mask = num_sets - 1
    for s in range(num_sets):
        sub = [a for a in addresses if a & mask == s]
        sub_oracle = stack_distance_histogram(
            Trace(sub, name=f"{label}-s{s}"), max_distance=max_distance
        )
        assert profile.per_set_stack_histogram(s) == sub_oracle, (
            f"{label}: set {s} stack histogram diverges from oracle"
        )
    # Miss-curve sanity: monotone, correctly anchored at both ends.
    counts = profile.miss_counts()
    assert counts[0] == profile.accesses, "misses(0) must equal accesses"
    assert counts[-1] == profile.cold_misses, (
        "misses(footprint) must equal cold misses"
    )
    assert all(a >= b for a, b in zip(counts, counts[1:])), (
        "miss curve must be non-increasing in capacity"
    )
    return profile


def columnar_checks():
    from repro.cache import SetAssociativeCache
    from repro.core.ipv import IPV, lip_ipv, lru_ipv
    from repro.engine.columnar import BatchSimulator
    from repro.obs.analytics import reconcile_with_stats
    from repro.policies import GIPPRPolicy

    rng = random.Random(11)
    stream = make_stream(8_000, NUM_SETS, ASSOC, seed=11)
    lanes = [
        tuple(lru_ipv(ASSOC).entries),
        tuple(lip_ipv(ASSOC).entries),
        tuple(rng.randrange(ASSOC) for _ in range(ASSOC + 1)),
    ]

    # 3. Batch counters reconcile with the scalar cache, lane by lane.
    simulator = BatchSimulator(NUM_SETS, ASSOC, lanes)
    plain = simulator.run(stream)
    misses = simulator.run(stream, counters=True)
    assert (plain == misses).all(), (
        "enabling counters changed the simulated miss counts"
    )
    counters = simulator.counters
    for lane, entries in enumerate(lanes):
        policy = GIPPRPolicy(
            NUM_SETS, ASSOC, ipv=IPV(list(entries), name=f"lane{lane}"),
            kernel="walk",
        )
        cache = SetAssociativeCache(NUM_SETS, ASSOC, policy, block_size=1)
        for address in stream:
            cache.access(address)
        reconcile_with_stats(counters, lane, cache.stats)
        assert counters.totals(lane)["measured_misses"] == int(misses[lane])
    print(f"batch counters OK       [{len(lanes)} lanes reconcile with "
          "scalar CacheStats]")

    # measured_misses is the warmup-filtered view; whole-stream totals
    # must not move when warmup does.
    warm = BatchSimulator(NUM_SETS, ASSOC, lanes, warmup=500)
    warm_misses = warm.run(stream, counters=True)
    warm_counters = warm.counters
    for lane in range(len(lanes)):
        assert (
            warm_counters.totals(lane)["misses"]
            == counters.totals(lane)["misses"]
        ), "whole-stream miss total moved with warmup"
        assert (
            warm_counters.totals(lane)["measured_misses"]
            == int(warm_misses[lane])
        )
    print("warmup view OK          [whole-stream totals invariant, "
          "measured_misses filtered]")

    # 4. Counters overhead budget.  The ratio's floor is the true cost;
    # noisy-box spikes only ever push it up, so best-of-3 measurement
    # batches gates on the floor without loosening the budget.
    from repro.obs.overhead import measure_counters_overhead

    best_ratio = float("inf")
    for attempt in range(3):
        _, _, ratio, misses_match = measure_counters_overhead(
            accesses=150_000, repeats=7
        )
        assert misses_match, "counters run diverged from plain run"
        best_ratio = min(best_ratio, ratio)
        if best_ratio <= OVERHEAD_BUDGET:
            break
    assert best_ratio <= OVERHEAD_BUDGET, (
        f"counters overhead {best_ratio:.3f}x exceeds "
        f"{OVERHEAD_BUDGET:.2f}x budget"
    )
    print(f"overhead OK             [{best_ratio:.3f}x <= "
          f"{OVERHEAD_BUDGET:.2f}x]")


def main():
    # 1. Profiler vs oracle on a randomized mixed hit/miss stream.
    stream = make_stream(5_000, NUM_SETS, ASSOC, seed=5)
    profile = check_profile_matches_oracle("random", stream, NUM_SETS)
    print(f"profiler OK             [random stream, footprint "
          f"{profile.footprint}, bit-identical to oracle]")

    # 2. Profiler vs oracle on a SPEC-archetype trace.
    from repro.eval.config import ExperimentConfig
    from repro.workloads import get_benchmark

    config = ExperimentConfig(
        num_sets=NUM_SETS, assoc=ASSOC, trace_length=LENGTH, seed=0,
        apply_env_scale=False,
    )
    benchmark = get_benchmark(BENCHMARK)
    trace = benchmark.trace(
        0, config.trace_length, config.capacity_blocks, seed=config.seed
    )
    profile = check_profile_matches_oracle(
        "spec", trace.address_list(), NUM_SETS
    )
    print(f"archetype OK            [{BENCHMARK}, footprint "
          f"{profile.footprint}, bit-identical to oracle]")

    columnar_checks()
    print("smoke-analytics: all checks passed")


if __name__ == "__main__":
    main()
