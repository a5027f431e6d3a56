#!/usr/bin/env python3
"""Evolve workload-neutral and workload-inclusive vector sets (Section 4.4).

Two modes, matching the paper's WNk methodology (it defines the general
hold-out-k scheme and uses k=1 on a cluster):

* default (``--folds 2``): WN-half cross-validation — benchmarks are split
  into folds and each benchmark's vectors are trained on the *other*
  fold(s).  Honest leave-out at single-core cost.
* ``--folds 0``: full WN1 (train on all-but-one for every benchmark), the
  paper's exact setting; 29x more GA work.

Each training set yields 1-, 2- and 4-vector IPV sets, plus one
workload-inclusive (WI) set trained on everything.  Each GA task's seed
derives from the digest of its label and vector count
(:mod:`repro.workloads.seeding`), so reruns write identical files; the
seeds are recorded in the output's ``ga`` block.  Results land in
``src/repro/data/wn1_vectors.json`` where
:func:`repro.core.vectors.load_wn1_vectors` and the honest-WN1 bench pick
them up.

Run:  python scripts/evolve_wn1_vectors.py [--workers N] [--folds K] [--quick]
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.eval.config import default_config  # noqa: E402
from repro.eval.crossval import evolve_duel_vectors  # noqa: E402
from repro.workloads import benchmark_names  # noqa: E402
from repro.workloads.seeding import derive_seed, spec_digest  # noqa: E402

OUTPUT = os.path.join(
    os.path.dirname(__file__), "..", "src", "repro", "data", "wn1_vectors.json"
)
VECTOR_COUNTS = (1, 2, 4)


def task_seed(label, num_vectors):
    """The GA seed of one task, the same in every interpreter."""
    return derive_seed(spec_digest({"label": label, "vectors": num_vectors}))


def _task(args):
    """One GA job: evolve ``num_vectors`` IPVs on an explicit training set."""
    (label, training, num_vectors, trace_length, population, generations,
     seed) = args
    config = default_config(trace_length=trace_length)
    vectors = evolve_duel_vectors(
        training,
        num_vectors,
        config=config,
        population_size=population,
        generations=generations,
        seed=seed,
    )
    return label, num_vectors, [list(v.entries) for v in vectors]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--trace-length", type=int, default=5000)
    parser.add_argument("--population", type=int, default=10)
    parser.add_argument("--generations", type=int, default=2)
    parser.add_argument(
        "--folds", type=int, default=2,
        help="cross-validation folds, >= 2 (0 = full leave-one-out WN1)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="only a handful of benchmarks (smoke test)",
    )
    parser.add_argument("--output", default=OUTPUT)
    args = parser.parse_args()
    if args.folds < 0 or args.folds == 1:
        parser.error(f"--folds must be 0 or >= 2, got {args.folds}")

    benches = benchmark_names()
    if args.quick:
        benches = benches[:4]

    # Build (label, training set) pairs.  Fold mode: each fold's members
    # get vectors trained on the complement; WN1 mode: one training set per
    # held-out benchmark.
    jobs = [("WI", benches)]
    bench_to_label = {}
    if args.folds:
        for fold in range(args.folds):
            members = benches[fold :: args.folds]
            training = [b for b in benches if b not in members]
            label = f"fold{fold}"
            jobs.append((label, training))
            for bench in members:
                bench_to_label[bench] = label
    else:
        for bench in benches:
            label = f"wo-{bench}"
            jobs.append((label, [b for b in benches if b != bench]))
            bench_to_label[bench] = label

    tasks = [
        (label, training, n, args.trace_length, args.population,
         args.generations, task_seed(label, n))
        for label, training in jobs
        for n in VECTOR_COUNTS
    ]
    print(f"{len(tasks)} GA tasks over {args.workers} workers", flush=True)

    by_label = {}
    done = 0
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        for label, num_vectors, vectors in pool.map(_task, tasks):
            by_label.setdefault(label, {})[str(num_vectors)] = vectors
            done += 1
            print(f"[{done}/{len(tasks)}] {label} x{num_vectors}", flush=True)

    # Expand fold labels to per-benchmark entries (the loader's schema).
    results = {"WI": by_label["WI"]}
    for bench, label in bench_to_label.items():
        results[bench] = by_label[label]

    scheme = f"{args.folds}-fold" if args.folds else "leave-one-out"
    payload = {
        "methodology": (
            f"WNk cross-validation per Section 4.4 ({scheme}); "
            "'WI' trained on all"
        ),
        "ga": {
            "trace_length": args.trace_length,
            "population": args.population,
            "generations": args.generations,
            "folds": args.folds,
            "seeds": {
                label: {str(n): task_seed(label, n) for n in VECTOR_COUNTS}
                for label, _ in jobs
            },
        },
        "vectors": results,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
