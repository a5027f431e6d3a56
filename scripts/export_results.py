#!/usr/bin/env python3
"""Export the paper's figure data as CSV for external plotting.

Runs the Figure 4/10/11/13 experiments and writes one CSV per figure into
``--outdir`` (default ``results/``), each row a benchmark and each column a
policy.  The same numbers the benches print, in machine-readable form.

Run:  python scripts/export_results.py [--outdir DIR] [--length N]
"""

import argparse
import csv
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.vectors import DGIPPR2_WI_VECTORS, DGIPPR4_WI_VECTORS  # noqa: E402
from repro.eval import PolicySpec, default_config, run_suite  # noqa: E402
from repro.obs import build_manifest, write_manifest  # noqa: E402


FIGURES = {
    "figure04_speedup": (
        [
            PolicySpec("LRU", "lru"),
            PolicySpec("PLRU", "plru"),
            PolicySpec("Random", "random"),
            PolicySpec("GIPLR", "giplr"),
        ],
        "speedups",
    ),
    "figure10_norm_mpki": (
        [
            PolicySpec("LRU", "lru"),
            PolicySpec("GIPPR", "gippr"),
            PolicySpec("2-DGIPPR", "dgippr", {"ipvs": DGIPPR2_WI_VECTORS}),
            PolicySpec("4-DGIPPR", "dgippr", {"ipvs": DGIPPR4_WI_VECTORS}),
            PolicySpec("MIN", "belady"),
        ],
        "normalized_mpki",
    ),
    "figure11_norm_mpki": (
        [
            PolicySpec("LRU", "lru"),
            PolicySpec("DRRIP", "drrip"),
            PolicySpec("PDP", "pdp"),
            PolicySpec("4-DGIPPR", "dgippr"),
            PolicySpec("MIN", "belady"),
        ],
        "normalized_mpki",
    ),
    "figure13_speedup": (
        [
            PolicySpec("LRU", "lru"),
            PolicySpec("DRRIP", "drrip"),
            PolicySpec("PDP", "pdp"),
            PolicySpec("4-DGIPPR", "dgippr"),
        ],
        "speedups",
    ),
}


def _kernel_bench_summary():
    """Compact summary of ``BENCH_kernels.json`` (see ``make bench-kernels``).

    Embedded in every figure manifest so the provenance record states which
    measured kernel speedups accompanied the exported numbers; ``None``
    when the bench has not been run.
    """
    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return {
        "created_at": data.get("created_at"),
        "sim_speedups": {
            f"k={row['assoc']}": round(row["speedup"], 3)
            for row in data.get("sim_throughput", [])
        },
        "ga_generation_speedup": round(
            data.get("ga_generation", {}).get("speedup", 0.0), 3
        ),
    }


def export_figure(name, specs, metric, config, outdir, workers, cache=None):
    suite = run_suite(specs, config=config, workers=workers, cache=cache)
    print(f"[repro-eval] {name}: {suite.metrics.summary()}", file=sys.stderr)
    labels = [s.label for s in specs if s.label != "LRU"]
    path = os.path.join(outdir, f"{name}.csv")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["benchmark"] + labels)
        values = {
            label: (
                suite.speedups(label)
                if metric == "speedups"
                else suite.normalized_mpki(label)
            )
            for label in labels
        }
        for bench in suite.benchmarks:
            writer.writerow(
                [bench] + [f"{values[label][bench]:.6f}" for label in labels]
            )
    write_manifest(path, build_manifest(
        config=config,
        extra={"figure": name, "metric": metric,
               "policies": [s.label for s in specs],
               "kernel_bench": _kernel_bench_summary()},
    ))
    print(f"wrote {path} (+ manifest)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--length", type=int, default=20_000)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                             "(default: ~/.cache/repro-eval)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument(
        "--figures", nargs="+", choices=sorted(FIGURES), default=sorted(FIGURES)
    )
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    config = default_config(trace_length=args.length)
    cache = None if args.no_cache else (args.cache_dir or True)
    for name in args.figures:
        specs, metric = FIGURES[name]
        export_figure(
            name, specs, metric, config, args.outdir, args.workers, cache
        )


if __name__ == "__main__":
    main()
