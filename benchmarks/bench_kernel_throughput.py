"""Transition-table kernel throughput: LUT vs bit-walk vs columnar.

Measures the claims behind :mod:`repro.kernels` and
:mod:`repro.engine.columnar`:

1. simulator throughput (accesses/second) of the PLRU-IPV fitness loop
   with the precompiled transition tables versus the Figure 5/7/9 bit-walk
   reference, for k in {4, 8, 16} — asserting bit-identical miss counts;
2. GA generation wall-time with ``kernel="lut"`` versus ``kernel="walk"``
   evaluators — asserting the evolved best vector is identical;
3. a GA-population batch (many IPV lanes over one shared trace pass)
   through :class:`repro.engine.columnar.BatchSimulator` versus a per-lane
   walk loop — the headline multi-lane speedup, again bit-identical.

Runs two ways:

* under pytest-benchmark as part of ``make bench``;
* as a script (``make bench-kernels``), writing ``BENCH_kernels.json``
  plus a provenance manifest sidecar at the repository root.

``REPRO_SCALE`` scales the stream and trace lengths as in the other
benches.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.engine.columnar import BatchSimulator, ColumnarTrace  # noqa: E402
from repro.ga.fitness import (  # noqa: E402
    FitnessEvaluator,
    simulate_misses_plru_ipv,
)
from repro.ga.genetic import evolve_ipv  # noqa: E402
from repro.kernels import compile_tables, kernel_provenance  # noqa: E402

#: Default accesses per simulated stream (script mode; pytest uses fewer).
DEFAULT_ACCESSES = 200_000
ASSOCIATIVITIES = (4, 8, 16)
NUM_SETS = 256
#: Lanes in the GA-population batch bench — one typical population's worth.
POPULATION_LANES = 24


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", "1") or "1")
    except ValueError:
        return 1.0


def make_stream(accesses: int, num_sets: int, assoc: int, seed: int = 42):
    """A mixed hit/miss block-address stream over ~2x the cache footprint."""
    rng = random.Random(seed)
    footprint = 2 * num_sets * assoc
    hot = num_sets * assoc // 2
    stream = []
    for _ in range(accesses):
        # 70 % of references hit a hot working set that fits, the rest
        # sweep a footprint twice the capacity: both paths get exercised.
        if rng.random() < 0.7:
            stream.append(rng.randrange(hot))
        else:
            stream.append(rng.randrange(footprint))
    return stream


def bench_ipv(k: int, seed: int = 9):
    """A deterministic non-trivial IPV for a k-way set."""
    rng = random.Random(seed + k)
    return tuple(rng.randrange(k) for _ in range(k + 1))


def measure_sim_throughput(assoc: int, accesses: int) -> dict:
    """Time walk vs LUT on one stream; assert bit-identical misses."""
    entries = bench_ipv(assoc)
    stream = make_stream(accesses, NUM_SETS, assoc)
    warmup = accesses // 10
    compile_tables(assoc, entries)  # compile outside the timed region

    t0 = time.perf_counter()
    walk_misses = simulate_misses_plru_ipv(
        stream, NUM_SETS, assoc, entries, warmup, kernel="walk"
    )
    walk_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    lut_misses = simulate_misses_plru_ipv(
        stream, NUM_SETS, assoc, entries, warmup, kernel="lut"
    )
    lut_sec = time.perf_counter() - t0

    if walk_misses != lut_misses:
        raise AssertionError(
            f"k={assoc}: LUT misses {lut_misses} != walk misses {walk_misses}"
        )
    row = {
        "assoc": assoc,
        "accesses": accesses,
        "misses": walk_misses,
        "walk_accesses_per_sec": accesses / walk_sec,
        "lut_accesses_per_sec": accesses / lut_sec,
        "speedup": walk_sec / lut_sec,
        "table_bytes": compile_tables(assoc, entries).nbytes,
    }
    t0 = time.perf_counter()
    columnar_misses = simulate_misses_plru_ipv(
        stream, NUM_SETS, assoc, entries, warmup, kernel="columnar"
    )
    columnar_sec = time.perf_counter() - t0
    if columnar_misses != walk_misses:
        raise AssertionError(
            f"k={assoc}: columnar misses {columnar_misses}"
            f" != walk misses {walk_misses}"
        )
    row["columnar_accesses_per_sec"] = accesses / columnar_sec
    row["columnar_speedup"] = walk_sec / columnar_sec
    return row


def measure_population_batch(
    assoc: int = 16,
    accesses: int = DEFAULT_ACCESSES,
    lanes: int = POPULATION_LANES,
) -> dict:
    """Time a GA population evaluated per-lane (walk) vs in one columnar
    batch; assert bit-identical misses on every lane.

    This is the scenario the columnar engine exists for: ``lanes`` IPVs
    share one pass over the trace, so the tag-compare work is amortized
    across the whole population instead of repeated per individual.
    """
    stream = make_stream(accesses, NUM_SETS, assoc)
    warmup = accesses // 10
    population = [bench_ipv(assoc, seed=100 + i) for i in range(lanes)]
    # Construct the simulator outside the timed region, like the other
    # benches' set-up.  Its lanes are the IPVs themselves over the shared
    # per-k tables, so nothing is compiled here or in the timed region.
    simulator = BatchSimulator(NUM_SETS, assoc, population, warmup)

    t0 = time.perf_counter()
    walk_misses = [
        simulate_misses_plru_ipv(
            stream, NUM_SETS, assoc, entries, warmup, kernel="walk"
        )
        for entries in population
    ]
    walk_sec = time.perf_counter() - t0

    # Trace preprocessing is part of the measured columnar cost — unlike
    # table compilation it cannot be cached across fresh streams.
    t0 = time.perf_counter()
    trace = ColumnarTrace(stream, NUM_SETS)
    columnar = simulator.run(trace)
    columnar_sec = time.perf_counter() - t0

    mismatched = [
        (i, int(columnar[i]), walk_misses[i])
        for i in range(lanes)
        if int(columnar[i]) != walk_misses[i]
    ]
    if mismatched:
        raise AssertionError(
            f"columnar misses diverge from walk on {len(mismatched)} lanes: "
            f"{mismatched[:3]}"
        )
    return {
        "assoc": assoc,
        "accesses": accesses,
        "lanes": lanes,
        "misses": walk_misses,
        "walk_sec": walk_sec,
        "columnar_sec": columnar_sec,
        "speedup": walk_sec / columnar_sec,
        "lane_accesses_per_sec": (lanes * accesses) / columnar_sec,
    }


def measure_analytics_profile(
    accesses: int = DEFAULT_ACCESSES,
    oracle_accesses: int = 60_000,
    num_sets: int = NUM_SETS,
) -> dict:
    """Vectorized Mattson profiler vs the ``trace.analysis`` oracle.

    The vectorized single pass runs over the full stream; the
    O(n x footprint) OrderedDict oracle is timed on a prefix (running it
    at a million accesses would take minutes) and the two are compared
    as per-access rates.  Bit-equality of the global stack-distance
    histogram and the per-set reuse histogram is asserted on the prefix
    — the speed claim is only meaningful if the numbers match.
    """
    from repro.obs.analytics import profile_trace
    from repro.trace.analysis import (
        per_set_reuse_histogram,
        stack_distance_histogram,
    )
    from repro.trace.record import Trace

    stream = make_stream(accesses, num_sets, 16, seed=17)
    prefix = stream[: min(oracle_accesses, accesses)]
    prefix_trace = Trace(prefix, name="bench-prefix")

    t0 = time.perf_counter()
    profile = profile_trace(stream, num_sets=num_sets)
    profile_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle_hist = stack_distance_histogram(prefix_trace)
    oracle_reuse = per_set_reuse_histogram(prefix_trace, num_sets)
    oracle_sec = time.perf_counter() - t0

    prefix_profile = profile_trace(prefix, num_sets=num_sets)
    if prefix_profile.stack_distance_histogram() != oracle_hist:
        raise AssertionError(
            "vectorized stack-distance histogram diverges from the oracle"
        )
    if prefix_profile.per_set_reuse_histogram() != oracle_reuse:
        raise AssertionError(
            "vectorized per-set reuse histogram diverges from the oracle"
        )

    profile_rate = accesses / profile_sec
    oracle_rate = len(prefix) / oracle_sec
    return {
        "accesses": accesses,
        "oracle_accesses": len(prefix),
        "num_sets": num_sets,
        "footprint": profile.footprint,
        "profile_sec": profile_sec,
        "oracle_sec": oracle_sec,
        "profile_accesses_per_sec": profile_rate,
        "oracle_accesses_per_sec": oracle_rate,
        "speedup_vs_oracle": profile_rate / oracle_rate,
    }


def measure_ga_generation(trace_length: int = 6_000) -> dict:
    """Wall-time of a short GA run, walk vs LUT evaluator; same best."""
    from repro.eval import default_config

    benchmarks = ["429.mcf", "462.libquantum"]

    def run(kernel: str):
        evaluator = FitnessEvaluator(
            benchmarks=benchmarks,
            config=default_config(trace_length=trace_length),
            kernel=kernel,
        )
        t0 = time.perf_counter()
        result = evolve_ipv(
            evaluator, population_size=10, initial_population_size=20,
            generations=3, seed=7,
        )
        return time.perf_counter() - t0, result

    walk_sec, walk_result = run("walk")
    lut_sec, lut_result = run("lut")
    if tuple(walk_result.best.entries) != tuple(lut_result.best.entries):
        raise AssertionError(
            "GA best vector differs between walk and LUT evaluators: "
            f"{list(walk_result.best.entries)} vs {list(lut_result.best.entries)}"
        )
    if walk_result.best_fitness != lut_result.best_fitness:
        raise AssertionError("GA best fitness differs between walk and LUT")
    generations = len(walk_result.history)
    return {
        "benchmarks": benchmarks,
        "trace_length": trace_length,
        "generations": generations,
        "walk_wall_sec": walk_sec,
        "lut_wall_sec": lut_sec,
        "walk_sec_per_generation": walk_sec / generations,
        "lut_sec_per_generation": lut_sec / generations,
        "speedup": walk_sec / lut_sec,
        "best_entries": list(walk_result.best.entries),
        "best_fitness": walk_result.best_fitness,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points (part of ``make bench``).
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("assoc", list(ASSOCIATIVITIES))
    def test_kernel_sim_throughput(benchmark, assoc):
        accesses = max(10_000, int(60_000 * _scale()))
        entries = bench_ipv(assoc)
        stream = make_stream(accesses, NUM_SETS, assoc)
        warmup = accesses // 10
        compile_tables(assoc, entries)
        walk = simulate_misses_plru_ipv(
            stream, NUM_SETS, assoc, entries, warmup, kernel="walk"
        )
        lut = benchmark(
            simulate_misses_plru_ipv,
            stream, NUM_SETS, assoc, entries, warmup, kernel="lut",
        )
        # Bit-exactness is the bench's correctness bar.
        assert lut == walk
        row = measure_sim_throughput(assoc, accesses)
        benchmark.extra_info["speedup_vs_walk"] = row["speedup"]
        benchmark.extra_info["lut_accesses_per_sec"] = row[
            "lut_accesses_per_sec"
        ]
        # The LUT path must never lose to the walk it memoizes.
        assert row["speedup"] > 1.0

    def test_kernel_population_batch(benchmark):
        accesses = max(10_000, int(60_000 * _scale()))
        row = benchmark.pedantic(
            measure_population_batch,
            kwargs={"accesses": accesses, "lanes": 8},
            rounds=1, iterations=1,
        )
        benchmark.extra_info["speedup_vs_walk"] = row["speedup"]
        benchmark.extra_info["lane_accesses_per_sec"] = row[
            "lane_accesses_per_sec"
        ]
        # Batching a population must beat evaluating its lanes one by one.
        assert row["speedup"] > 1.0

    def test_kernel_analytics_profile(benchmark):
        accesses = max(10_000, int(60_000 * _scale()))
        row = benchmark.pedantic(
            measure_analytics_profile,
            kwargs={"accesses": accesses, "oracle_accesses": 20_000},
            rounds=1, iterations=1,
        )
        benchmark.extra_info["speedup_vs_oracle"] = row["speedup_vs_oracle"]
        benchmark.extra_info["profile_accesses_per_sec"] = row[
            "profile_accesses_per_sec"
        ]
        # The vectorized pass must beat the OrderedDict stack walk.
        assert row["speedup_vs_oracle"] > 1.0

    def test_kernel_ga_generation(benchmark):
        # Note: each *new* k=16 vector pays a ~20 ms table compile, so the
        # LUT only wins once traces are long enough to amortize it (the
        # script-mode default is; tiny REPRO_SCALE runs may not be).  The
        # assertion here is the determinism contract — same evolved best
        # across kernels — which measure_ga_generation itself enforces.
        trace_length = max(2_000, int(4_000 * _scale()))
        row = benchmark.pedantic(
            measure_ga_generation,
            kwargs={"trace_length": trace_length},
            rounds=1, iterations=1,
        )
        benchmark.extra_info["speedup"] = row["speedup"]
        benchmark.extra_info["best_entries"] = row["best_entries"]
        assert row["walk_wall_sec"] > 0 and row["lut_wall_sec"] > 0


# ----------------------------------------------------------------------
# Script mode (``make bench-kernels``): write BENCH_kernels.json.
# ----------------------------------------------------------------------
def collect(accesses: int, ga_trace_length: int) -> dict:
    sim_rows = [measure_sim_throughput(k, accesses) for k in ASSOCIATIVITIES]
    ga_row = measure_ga_generation(trace_length=ga_trace_length)
    return {
        "schema": "repro-bench-kernels/1",
        "created_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
        "stream": {"num_sets": NUM_SETS, "accesses": accesses},
        "sim_throughput": sim_rows,
        "ga_generation": ga_row,
        "kernels": kernel_provenance(),
        "population_batch": measure_population_batch(accesses=accesses),
        "analytics_profile": measure_analytics_profile(accesses=accesses),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json"),
        help="output JSON path (default: repo root BENCH_kernels.json)",
    )
    parser.add_argument(
        "--accesses", type=int,
        default=max(20_000, int(DEFAULT_ACCESSES * _scale())),
        help="accesses per simulated stream",
    )
    parser.add_argument(
        "--ga-trace-length", type=int,
        default=max(2_000, int(6_000 * _scale())),
        help="fitness trace length for the GA timing",
    )
    args = parser.parse_args(argv)

    results = collect(args.accesses, args.ga_trace_length)
    out = Path(args.out)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")

    from repro.obs.provenance import build_manifest, write_manifest

    write_manifest(
        out,
        build_manifest(
            extra={"bench": "kernel-throughput", "output": str(out)}
        ),
    )

    print(f"== kernel throughput ({args.accesses} accesses/stream) ==")
    for row in results["sim_throughput"]:
        line = (
            f"  k={row['assoc']:>2}: walk {row['walk_accesses_per_sec']:>12,.0f}"
            f" acc/s | lut {row['lut_accesses_per_sec']:>12,.0f} acc/s"
            f" | {row['speedup']:.2f}x | misses {row['misses']}"
        )
        if "columnar_speedup" in row:
            line += (
                f" | columnar {row['columnar_accesses_per_sec']:>12,.0f}"
                f" acc/s ({row['columnar_speedup']:.2f}x)"
            )
        print(line)
    pop = results.get("population_batch")
    if pop is not None:
        print(
            f"  population k={pop['assoc']} x{pop['lanes']} lanes:"
            f" walk {pop['walk_sec']:.2f}s"
            f" | columnar {pop['columnar_sec']:.2f}s"
            f" | {pop['speedup']:.1f}x"
            f" | {pop['lane_accesses_per_sec']:,.0f} lane-acc/s"
        )
    prof = results.get("analytics_profile")
    if prof is not None:
        print(
            f"  analytics profile: {prof['profile_accesses_per_sec']:,.0f}"
            f" acc/s | oracle {prof['oracle_accesses_per_sec']:,.0f} acc/s"
            f" | {prof['speedup_vs_oracle']:.1f}x"
            f" | footprint {prof['footprint']}"
        )
    ga = results["ga_generation"]
    print(
        f"  GA generation: walk {ga['walk_sec_per_generation']:.2f}s"
        f" | lut {ga['lut_sec_per_generation']:.2f}s"
        f" | {ga['speedup']:.2f}x | best {ga['best_entries']}"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
