#!/usr/bin/env python3
"""Plot a set-dueling PSEL timeline for a dueling policy.

Runs one benchmark simpoint through a dueling policy (DGIPPR by default)
with the repro.obs tracer sampling the saturating counters every
``--every`` accesses, then renders the timeline as an ASCII chart and
writes the raw samples as CSV (and a PNG when matplotlib is installed —
the script degrades gracefully without it).

A positive PSEL means the *second* policy of the duel has been missing
less recently; zero crossings are exactly the selector's follower flips.

Run:  python scripts/plot_psel_timeline.py 429.mcf --policy dgippr \
          --length 20000 --every 50 --csv results/psel.csv
"""

import argparse
import csv
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.eval.config import ExperimentConfig  # noqa: E402
from repro.eval.runner import run_trace  # noqa: E402
from repro.obs import ListSink, Tracer, build_manifest, write_manifest  # noqa: E402
from repro.policies import make_policy  # noqa: E402
from repro.workloads import get_benchmark  # noqa: E402

CHART_WIDTH = 72
CHART_HEIGHT = 15


def ascii_timeline(samples, width=CHART_WIDTH, height=CHART_HEIGHT):
    """Render (access, value) pairs as a fixed-size ASCII chart."""
    if not samples:
        return "(no samples)"
    values = [v for _, v in samples]
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    # Down-sample to the chart width by last-value-in-bucket.
    per_col = max(1, len(samples) // width)
    columns = [samples[min(i * per_col, len(samples) - 1)][1]
               for i in range(min(width, len(samples)))]
    grid = [[" "] * len(columns) for _ in range(height)]
    zero_row = None
    if lo <= 0 <= hi:
        zero_row = height - 1 - int((0 - lo) / (hi - lo) * (height - 1))
        for x in range(len(columns)):
            grid[zero_row][x] = "-"
    for x, value in enumerate(columns):
        y = height - 1 - int((value - lo) / (hi - lo) * (height - 1))
        grid[y][x] = "*"
    lines = []
    for y, row in enumerate(grid):
        label = ""
        if y == 0:
            label = f"{hi:>7}"
        elif y == height - 1:
            label = f"{lo:>7}"
        elif zero_row is not None and y == zero_row:
            label = f"{0:>7}"
        lines.append(f"{label:>7} |{''.join(row)}")
    first, last = samples[0][0], samples[-1][0]
    lines.append(f"{'':>7} +{'-' * len(columns)}")
    lines.append(f"{'':>7}  access {first} .. {last}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="429.mcf")
    parser.add_argument("--policy", default="dgippr",
                        help="a dueling policy (dgippr, drrip, dip, ...)")
    parser.add_argument("--simpoint", type=int, default=0)
    parser.add_argument("--length", type=int, default=20_000)
    parser.add_argument("--sets", type=int, default=64)
    parser.add_argument("--assoc", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--every", type=int, default=50,
                        help="sample the counters every N accesses")
    parser.add_argument("--counter", default=None,
                        help="which counter to chart (default: first "
                             "seen; the selector's counter names)")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="write all samples as CSV")
    parser.add_argument("--png", default=None, metavar="PATH",
                        help="write a PNG (requires matplotlib)")
    args = parser.parse_args()

    benchmark = get_benchmark(args.benchmark)
    config = ExperimentConfig(
        num_sets=args.sets, assoc=args.assoc, trace_length=args.length,
        seed=args.seed, apply_env_scale=False,
    )
    trace = benchmark.trace(
        args.simpoint, config.trace_length, config.capacity_blocks,
        seed=config.seed,
    )
    policy = make_policy(args.policy, args.sets, args.assoc)
    selector = getattr(policy, "selector", None)
    if selector is None or selector.num_policies < 2:
        parser.error(f"{args.policy} has no set-dueling selector")

    sink = ListSink()
    tracer = Tracer(sink=sink, psel_every=args.every)
    result = run_trace(policy, trace, config, tracer=tracer)

    timelines = defaultdict(list)
    flips = []
    for event in sink:
        if event.kind == "psel_sample":
            timelines[event.label].append((event.access, event.value))
        elif event.kind == "duel_flip":
            flips.append((event.access, event.value, event.policy))

    print(f"{policy.name} @ {trace.name}: miss rate "
          f"{result.miss_rate:.4f}, {len(flips)} follower flips")
    if not timelines:
        print("no PSEL samples recorded — is --every larger than the trace?")
        return 1
    counter = args.counter or sorted(timelines)[0]
    if counter not in timelines:
        parser.error(f"counter {counter!r} not in trace "
                     f"(have: {', '.join(sorted(timelines))})")
    print(f"\nPSEL timeline — counter {counter!r} "
          f"(every {args.every} accesses):\n")
    print(ascii_timeline(timelines[counter]))
    if flips:
        shown = ", ".join(f"@{a} {old}->{new}" for a, old, new in flips[:8])
        more = f" (+{len(flips) - 8} more)" if len(flips) > 8 else ""
        print(f"\nfollower flips: {shown}{more}")

    if args.csv:
        os.makedirs(os.path.dirname(args.csv) or ".", exist_ok=True)
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["counter", "access", "value"])
            for name in sorted(timelines):
                for access, value in timelines[name]:
                    writer.writerow([name, access, value])
        write_manifest(args.csv, build_manifest(
            config=config, policy=args.policy, seed=args.seed,
            extra={"benchmark": benchmark.name, "simpoint": args.simpoint,
                   "psel_every": args.every, "output": args.csv},
        ))
        print(f"\nsamples written to {args.csv} (+ manifest)")

    if args.png:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping PNG", file=sys.stderr)
        else:
            fig, ax = plt.subplots(figsize=(10, 4))
            for name in sorted(timelines):
                xs, ys = zip(*timelines[name])
                ax.plot(xs, ys, label=name)
            for access, _, _ in flips:
                ax.axvline(access, color="grey", alpha=0.3, linewidth=0.8)
            ax.axhline(0, color="black", linewidth=0.8)
            ax.set_xlabel("access")
            ax.set_ylabel("counter value")
            ax.set_title(f"{policy.name} PSEL timeline — {trace.name}")
            ax.legend()
            fig.tight_layout()
            fig.savefig(args.png, dpi=120)
            print(f"plot written to {args.png}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
