"""Serving-scenario throughput: sharded columnar front-end vs scalar loop.

Measures the headline of :mod:`repro.serve` — sustained end-to-end
accesses/sec (generation + binning + simulation) of a churning,
flash-crowded Zipf stream through the sharded front-end — against the
per-access scalar loop (the Figure 5/7/9 bit-walk reference, one access
at a time), asserting bit-identical miss counts on a shared sample.  A
separate untimed pass replays the full stream under ``tracemalloc`` and
reports post-warm-up heap growth: the bounded-memory claim, measured.
Three alternating plain/telemetry pairs record the telemetry throughput
ratio as their median (its acceptance bar is >= 95 %).

Runs two ways:

* under pytest-benchmark as part of ``make bench`` (scaled down);
* as a script (``make bench-serving``), writing ``BENCH_serving.json``
  plus a provenance manifest sidecar at the repository root and
  appending a ``bench-serving`` perf-trend row (the
  ``serving_throughput_accesses_per_sec`` series) to
  ``BENCH_history.jsonl`` — ``make trend-check`` guards it.

``REPRO_SCALE`` scales the stream length as in the other benches.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # script mode: make src importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.core.ipv import lru_ipv  # noqa: E402
from repro.engine.scalar import ScalarStreamSimulator  # noqa: E402
from repro.ga.fitness import simulate_misses_plru_ipv  # noqa: E402
from repro.serve.frontend import ShardedFrontend  # noqa: E402
from repro.serve.telemetry import ServeTelemetry  # noqa: E402
from repro.serve.workload import (  # noqa: E402
    ServingSpec,
    ServingStream,
    auto_flash_phases,
)

#: Default stream length (script mode) — the ISSUE's >= 10M-access bar.
DEFAULT_ACCESSES = 10_000_000
NUM_SETS = 1024
ASSOC = 16
#: Headline shard count.  More shards mean more lockstep steps per chunk
#: (each shard sees a narrower set range), so on a single process two
#: shards is the throughput sweet spot; the shard sweep below records
#: {1, 2, 4} so the scaling story stays visible in the JSON.
SHARDS = 2
SHARD_SWEEP = (1, 2, 4)
CHUNK_ACCESSES = 1 << 16
#: Accesses in the bit-identity / scalar-baseline sample.
SAMPLE_ACCESSES = 1_000_000
#: Alternating plain/telemetry pairs behind the telemetry ratio (median).
TELEMETRY_PAIRS = 3
ENTRIES = tuple(lru_ipv(ASSOC).entries)


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", "1") or "1")
    except ValueError:
        return 1.0


def bench_spec(accesses: int) -> ServingSpec:
    return ServingSpec(
        keys=1 << 15,
        alpha=1.2,
        tenants=2,
        accesses=accesses,
        churn_per_million=20_000,
        phases=auto_flash_phases(accesses, 2, share=0.5, hot_keys=64),
        seed=42,
    )


def measure_serving_throughput(
    accesses: int,
    shards: int = SHARDS,
    chunk_accesses: int = CHUNK_ACCESSES,
) -> dict:
    """Timed end-to-end pass: generation + binning + simulation."""
    spec = bench_spec(accesses)
    frontend = ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=shards, engine="auto"
    )
    stream = ServingStream(spec)
    t0 = time.perf_counter()
    misses = 0
    for chunk in stream.chunks(chunk_accesses):
        misses += frontend.process(chunk)
    wall = time.perf_counter() - t0
    assert frontend.accesses == accesses
    assert frontend.shed_accesses == 0
    return {
        "accesses": accesses,
        "misses": misses,
        "miss_rate": misses / accesses,
        "shards": shards,
        "engine": frontend.engine,
        "backend": stream.backend,
        "chunk_accesses": chunk_accesses,
        "wall_sec": wall,
        "accesses_per_sec": accesses / wall,
        "retired_keys": stream.retired,
    }


def measure_telemetry_overhead(
    accesses: int,
    shards: int = SHARDS,
    chunk_accesses: int = CHUNK_ACCESSES,
) -> dict:
    """Timed passes with SLO telemetry attached vs the plain drain loop.

    Telemetry is fed once per engine batch (HDR histograms, sliding
    windows, drift detection), so the enabled run must sustain >= 95 %
    of the plain run's throughput — the telemetry acceptance bar.  One
    pair is at the mercy of the machine's moment, so
    :data:`TELEMETRY_PAIRS` plain/telemetry pairs run alternately; every
    pair's ratio is recorded and their median is ``throughput_ratio``.
    Misses must be bit-identical: observing a run never changes it.
    """
    spec = bench_spec(accesses)

    def run(telemetry):
        frontend = ShardedFrontend(
            NUM_SETS, ASSOC, ENTRIES, shards=shards, engine="auto",
            telemetry=telemetry,
        )
        stream = ServingStream(spec)
        t0 = time.perf_counter()
        misses = 0
        for chunk in stream.chunks(chunk_accesses):
            misses += frontend.process(chunk)
        return misses, time.perf_counter() - t0

    plain_rates, telem_rates, ratios = [], [], []
    for _ in range(TELEMETRY_PAIRS):
        plain_misses, plain_sec = run(None)
        telem = ServeTelemetry(shards)
        telem_misses, telem_sec = run(telem)
        telem.finalize()
        assert telem_misses == plain_misses, (
            f"telemetry changed misses: {telem_misses} != {plain_misses}"
        )
        plain_rates.append(accesses / plain_sec)
        telem_rates.append(accesses / telem_sec)
        ratios.append(plain_sec / telem_sec if telem_sec > 0 else 1.0)
    ratio = statistics.median(ratios)
    return {
        "accesses": accesses,
        "shards": shards,
        "pairs": TELEMETRY_PAIRS,
        "plain_accesses_per_sec": statistics.median(plain_rates),
        "telemetry_accesses_per_sec": statistics.median(telem_rates),
        "pair_ratios": ratios,
        "throughput_ratio": ratio,
        "windows_closed": telem.windows.windows_closed,
        "meets_95pct": ratio >= 0.95,
    }


def measure_scalar_baselines(accesses: int, sample: int) -> dict:
    """The per-access scalar loop on a sample prefix, end to end.

    Two flavours, both one-access-at-a-time Python loops over the same
    generated prefix: the Figure 5/7/9 *bit-walk* reference (the
    per-access scalar loop proper — every access walks the tree) and the
    LUT-stepped :class:`ScalarStreamSimulator` (the no-numpy serving
    fallback).  Rates include generation time, like the serving number,
    but not the conversion to the Python ints those loops take.
    Miss counts of all paths over the prefix must agree exactly.
    """
    sample = min(sample, accesses)
    spec = bench_spec(accesses).with_accesses(sample)
    stream = ServingStream(spec)
    t0 = time.perf_counter()
    chunks = list(stream.chunks(CHUNK_ACCESSES))
    gen_sec = time.perf_counter() - t0
    prefix = [a for chunk in chunks for a in chunk.tolist()]

    t0 = time.perf_counter()
    walk_misses = simulate_misses_plru_ipv(
        prefix, NUM_SETS, ASSOC, ENTRIES, 0, kernel="walk"
    )
    walk_sec = time.perf_counter() - t0

    scalar = ScalarStreamSimulator(NUM_SETS, ASSOC, ENTRIES, warmup=0)
    t0 = time.perf_counter()
    scalar_misses = scalar.feed(prefix)
    scalar_sec = time.perf_counter() - t0
    assert scalar_misses == walk_misses

    sharded = ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=SHARDS, engine="auto"
    )
    for lo in range(0, sample, CHUNK_ACCESSES):
        sharded.process(prefix[lo:lo + CHUNK_ACCESSES])
    assert sharded.misses == walk_misses, (
        f"sharded front-end diverged on the sample: "
        f"{sharded.misses} != {walk_misses}"
    )
    return {
        "sample_accesses": sample,
        "sample_misses": walk_misses,
        "generate_sec": gen_sec,
        "walk_sec": walk_sec,
        "scalar_stream_sec": scalar_sec,
        "walk_accesses_per_sec": sample / (gen_sec + walk_sec),
        "scalar_stream_accesses_per_sec": sample / (gen_sec + scalar_sec),
    }


def measure_flat_memory(accesses: int, shards: int = SHARDS) -> dict:
    """Untimed tracemalloc replay: post-warm-up heap growth in bytes."""
    spec = bench_spec(accesses)
    frontend = ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=shards, engine="auto"
    )
    stream = ServingStream(spec)
    warm = max(CHUNK_ACCESSES, accesses // 8)
    baseline = None
    growth = 0
    done = 0
    tracemalloc.start()
    try:
        for chunk in stream.chunks(CHUNK_ACCESSES):
            frontend.process(chunk)
            done += len(chunk)
            if done >= warm:
                current, _ = tracemalloc.get_traced_memory()
                if baseline is None:
                    baseline = current
                else:
                    growth = max(growth, current - baseline)
    finally:
        tracemalloc.stop()
    return {
        "accesses": accesses,
        "warmup_accesses": warm,
        "heap_growth_bytes": growth,
        "flat": growth < (8 << 20),
    }


def measure_shard_sweep(accesses: int) -> list:
    """Throughput at each sweep shard count on a shared shorter stream.

    Miss counts must agree exactly across shard counts — sharding is a
    layout choice, never a semantic one.
    """
    rows = [
        measure_serving_throughput(accesses, shards=s)
        for s in SHARD_SWEEP
    ]
    misses = {row["misses"] for row in rows}
    assert len(misses) == 1, f"shard counts diverged: {sorted(misses)}"
    return rows


def collect(accesses: int, sample: int = SAMPLE_ACCESSES,
            memory_accesses: int = 0, shards: int = SHARDS) -> dict:
    serving = measure_serving_throughput(accesses, shards=shards)
    baselines = measure_scalar_baselines(accesses, sample)
    sweep = measure_shard_sweep(min(accesses, 2_000_000))
    memory = measure_flat_memory(memory_accesses or accesses)
    telemetry = measure_telemetry_overhead(accesses, shards=shards)
    speedup = (
        serving["accesses_per_sec"] / baselines["walk_accesses_per_sec"]
    )
    return {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                    time.localtime()),
        "geometry": {"num_sets": NUM_SETS, "assoc": ASSOC,
                     "policy": "lru"},
        "spec": bench_spec(accesses).digest_payload(),
        "serving": serving,
        "scalar_baselines": baselines,
        "shard_sweep": sweep,
        "memory": memory,
        "telemetry": telemetry,
        "speedup_vs_walk": speedup,
        "meets_5x": speedup >= 5.0,
    }


def trend_metrics(results: dict) -> dict:
    """Flatten a BENCH_serving.json payload into perf-trend metrics."""
    return {
        "serving_throughput_accesses_per_sec":
            results["serving"]["accesses_per_sec"],
        "serving_scalar_walk_accesses_per_sec":
            results["scalar_baselines"]["walk_accesses_per_sec"],
        "serving_speedup": results["speedup_vs_walk"],
        "serving_heap_growth_bytes":
            results["memory"]["heap_growth_bytes"],
        "serving_telemetry_ratio":
            results["telemetry"]["throughput_ratio"],
        **{
            f"serving_shard{row['shards']}_accesses_per_sec":
                row["accesses_per_sec"]
            for row in results.get("shard_sweep", ())
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_serving.json"),
        help="output JSON path (default: repo root BENCH_serving.json)",
    )
    parser.add_argument(
        "--accesses", type=int,
        default=max(500_000, int(DEFAULT_ACCESSES * _scale())),
        help="stream length for the timed serving pass",
    )
    parser.add_argument(
        "--shards", type=int, default=SHARDS,
        help="shard count for the headline timed pass",
    )
    parser.add_argument(
        "--sample", type=int, default=SAMPLE_ACCESSES,
        help="sample length for the scalar baselines + bit-identity",
    )
    parser.add_argument(
        "--memory-accesses", type=int, default=0, metavar="N",
        help="stream length for the tracemalloc pass (default: same as "
             "--accesses)",
    )
    parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="perf-trend history file to append to (default: repo root "
             "BENCH_history.jsonl or $REPRO_TREND_HISTORY); --no-history "
             "disables recording",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending this run to the perf-trend history",
    )
    args = parser.parse_args(argv)

    results = collect(args.accesses, args.sample, args.memory_accesses,
                      shards=args.shards)
    out = Path(args.out)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")

    from repro.obs.provenance import build_manifest, write_manifest

    write_manifest(
        out,
        build_manifest(extra={"bench": "serving", "output": str(out)}),
    )

    serving = results["serving"]
    base = results["scalar_baselines"]
    mem = results["memory"]
    print(f"== serving throughput ({serving['accesses']:,} accesses, "
          f"{serving['shards']} shards, {serving['engine']}) ==")
    print(f"  serving   {serving['accesses_per_sec']:>12,.0f} acc/s "
          f"end-to-end | miss rate {serving['miss_rate']:.4f}")
    print(f"  walk loop {base['walk_accesses_per_sec']:>12,.0f} acc/s "
          f"(per-access scalar reference, {base['sample_accesses']:,}"
          f"-access sample)")
    print(f"  scalar    {base['scalar_stream_accesses_per_sec']:>12,.0f}"
          f" acc/s (LUT stream fallback)")
    for row in results["shard_sweep"]:
        print(f"  sweep     {row['accesses_per_sec']:>12,.0f} acc/s "
              f"@ {row['shards']} shard(s) "
              f"({row['accesses']:,}-access stream)")
    print(f"  speedup vs per-access scalar loop: "
          f"{results['speedup_vs_walk']:.2f}x "
          f"({'meets' if results['meets_5x'] else 'BELOW'} the 5x bar)")
    print(f"  heap growth after warm-up: "
          f"{mem['heap_growth_bytes'] / 2**20:.2f} MiB "
          f"({'flat' if mem['flat'] else 'NOT FLAT'})")
    telem = results["telemetry"]
    print(f"  telemetry {telem['telemetry_accesses_per_sec']:>12,.0f}"
          f" acc/s with SLO telemetry attached "
          f"({telem['throughput_ratio']:.1%} of plain, median of "
          f"{telem['pairs']} pairs, "
          f"{'meets' if telem['meets_95pct'] else 'BELOW'} the 95% bar, "
          f"{telem['windows_closed']} windows)")
    print(f"wrote {out}")

    if not args.no_history:
        from repro.obs.trend import default_history_path, record_entry

        history = args.history or default_history_path()
        entry = record_entry(
            history,
            trend_metrics(results),
            source="bench-serving",
            extra={
                "accesses": serving["accesses"],
                "shards": serving["shards"],
                "engine": serving["engine"],
            },
        )
        print(f"recorded {len(entry['metrics'])} metrics "
              f"@ {entry['git_revision'][:12]} -> {history}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points (part of ``make bench``).
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:

    def test_serving_throughput(benchmark):
        accesses = max(100_000, int(400_000 * _scale()))
        row = benchmark.pedantic(
            measure_serving_throughput,
            kwargs={"accesses": accesses},
            rounds=1, iterations=1,
        )
        baselines = measure_scalar_baselines(accesses, accesses // 4)
        speedup = (
            row["accesses_per_sec"] / baselines["walk_accesses_per_sec"]
        )
        benchmark.extra_info["accesses_per_sec"] = row["accesses_per_sec"]
        benchmark.extra_info["speedup_vs_walk"] = speedup
        # Batched serving must beat the per-access loop even at
        # smoke scale; the 5x bar applies to the full script run.
        assert speedup > 1.0

    def test_serving_memory_flat(benchmark):
        accesses = max(100_000, int(400_000 * _scale()))
        row = benchmark.pedantic(
            measure_flat_memory,
            kwargs={"accesses": accesses},
            rounds=1, iterations=1,
        )
        benchmark.extra_info["heap_growth_bytes"] = row[
            "heap_growth_bytes"
        ]
        assert row["flat"], (
            f"heap grew {row['heap_growth_bytes'] / 2**20:.1f} MiB"
        )


if __name__ == "__main__":
    sys.exit(main())
