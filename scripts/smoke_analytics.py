#!/usr/bin/env python3
"""Profiler-against-oracle smoke check (``make smoke-analytics``).

Asserts that the vectorized Mattson profiler of ``repro.obs.analytics``
is **bit-identical** to the pure-Python ``repro.trace.analysis`` oracles
(global stack-distance histogram, per-set stack histograms and the PDP
reuse histogram), and that its miss curve is sane (non-increasing,
``misses(0) == accesses`` and ``misses(footprint) == cold misses``), on:

1. a randomized mixed hit/miss stream, and
2. a synthetic SPEC-archetype trace (``462.libquantum``), i.e. on the
   streams experiments actually use.

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
    print("smoke-analytics: all checks passed")


if __name__ == "__main__":
    main()
