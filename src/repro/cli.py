"""Command-line interface.

Installed as the ``repro`` console script::

    repro policies                       # list registered policies
    repro vectors                        # show the published paper vectors
    repro compare --benchmarks 429.mcf 462.libquantum
    repro evolve --generations 8 --population 24
    repro overhead                       # the Section 3.6 table
    repro trace-stats 462.libquantum     # reuse profile of a stand-in
    repro trace 429.mcf --out t.jsonl    # traced run -> JSONL event stream
    repro obs summary t.jsonl            # inspect / validate / re-metric it
    repro verify --all                   # differential conformance gate
    repro verify --policy gippr --fuzz-budget 50000 --artifact-dir repros/

Global flags: ``-v`` raises log verbosity to DEBUG, ``--log-level`` sets an
explicit level (library modules log through ``logging.getLogger(__name__)``;
see :mod:`repro.obs.logconfig`).

Each subcommand is a thin wrapper over the library API, so everything the
CLI does can be scripted directly against :mod:`repro`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from .core.vectors import paper_vectors
from .eval import (
    PolicySpec,
    default_config,
    format_overhead,
    overhead_table,
    run_suite,
    speedup_table,
)
from .obs.logconfig import configure_logging
from .policies import policy_names
from .viz import bar_chart, transition_text
from .workloads import get_benchmark

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)

DEFAULT_COMPARE = ["lru", "plru", "drrip", "pdp", "dgippr"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tree-PseudoLRU insertion/promotion (MICRO 2013) reproduction",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (default INFO; -v = DEBUG)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="explicit log level (DEBUG, INFO, WARNING, ERROR); "
             "overrides -v",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("policies", help="list registered replacement policies")

    sub.add_parser("vectors", help="show the published paper IPVs")

    compare = sub.add_parser("compare", help="run policies over the suite")
    compare.add_argument(
        "--policies", nargs="+", default=DEFAULT_COMPARE, metavar="NAME",
        help=f"registry names (default: {' '.join(DEFAULT_COMPARE)})",
    )
    compare.add_argument(
        "--benchmarks", nargs="+", default=None, metavar="BENCH",
        help="benchmark names (default: all 29)",
    )
    compare.add_argument("--length", type=int, default=20_000,
                         help="accesses per simpoint")
    compare.add_argument("--sets", type=int, default=64, help="LLC sets")
    compare.add_argument("--workers", type=int, default=0,
                         help="parallel worker processes")
    compare.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: ~/.cache/repro-eval or "
             "$REPRO_CACHE_DIR)",
    )
    compare.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    compare.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write runner metrics (jobs, cache hit rate, sims/sec) as JSON",
    )
    compare.add_argument("--chart", action="store_true",
                         help="also print an ASCII bar chart")
    compare.add_argument(
        "--status-json", default=None, metavar="PATH",
        help="publish live run status here (watch with `repro obs watch`)",
    )

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: ~/.cache/repro-eval)")
    cache.add_argument("--clear", action="store_true",
                       help="remove every cached result")

    evolve = sub.add_parser("evolve", help="evolve an IPV with the GA")
    evolve.add_argument("--benchmarks", nargs="+", default=None)
    evolve.add_argument("--generations", type=int, default=8)
    evolve.add_argument("--population", type=int, default=24)
    evolve.add_argument("--length", type=int, default=10_000)
    evolve.add_argument("--seed", type=int, default=0)
    evolve.add_argument("--workers", type=int, default=0)
    evolve.add_argument("--substrate", choices=["plru", "lru"], default="plru")
    evolve.add_argument(
        "--profile", default=None, metavar="TRACE_JSON",
        help="span-profile the run and write a Chrome trace-event JSON "
             "(open in chrome://tracing or Perfetto); worker spans are "
             "merged in for parallel runs",
    )
    evolve.add_argument(
        "--profile-folded", default=None, metavar="PATH",
        help="also write a folded-stack flamegraph text file",
    )
    evolve.add_argument(
        "--status-json", default=None, metavar="PATH",
        help="publish live run status here (watch with `repro obs watch`)",
    )
    evolve.add_argument(
        "--convergence-json", default=None, metavar="PATH",
        help="write per-generation convergence telemetry (fitness "
             "distribution, diversity, eval throughput) here; render it "
             "with `repro obs analyze --convergence PATH`",
    )

    sub.add_parser("overhead", help="Section 3.6 storage-overhead table")

    simulate = sub.add_parser(
        "simulate", help="run a saved .npz trace through a policy"
    )
    simulate.add_argument("trace", help="path to a trace saved with save_trace")
    simulate.add_argument("--policy", default="dgippr")
    simulate.add_argument("--sets", type=int, default=64)
    simulate.add_argument("--assoc", type=int, default=16)
    simulate.add_argument("--warmup", type=float, default=0.25,
                          help="warmup fraction")
    simulate.add_argument(
        "--filter-l1l2", action="store_true",
        help="filter the trace through the paper's L1/L2 first",
    )

    stats = sub.add_parser("trace-stats", help="reuse profile of a benchmark")
    stats.add_argument("benchmark", help="benchmark name (e.g. 429.mcf)")
    stats.add_argument("--length", type=int, default=20_000)

    trace = sub.add_parser(
        "trace",
        help="run one simpoint with event tracing to a JSONL file",
        description="Simulate one (benchmark, policy, simpoint) with the "
                    "repro.obs event tracer attached after warmup, stream "
                    "hit/miss/insertion/promotion/eviction/duel events to "
                    "JSONL, and verify the trace replays to the untraced "
                    "counts.",
    )
    trace.add_argument("benchmark", help="benchmark name (e.g. 429.mcf)")
    trace.add_argument("--policy", default="dgippr")
    trace.add_argument("--simpoint", type=int, default=0)
    trace.add_argument("--length", type=int, default=20_000)
    trace.add_argument("--sets", type=int, default=64)
    trace.add_argument("--assoc", type=int, default=16)
    trace.add_argument("--warmup", type=float, default=0.25,
                       help="warmup fraction (events cover the measured "
                            "window only)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default="events.jsonl", metavar="PATH",
                       help="JSONL event file (default: events.jsonl)")
    trace.add_argument("--sample-sets", type=int, nargs="+", default=None,
                       metavar="SET", help="trace only these set indices")
    trace.add_argument("--sample-every", type=int, default=1, metavar="N",
                       help="keep only every Nth access's events")
    trace.add_argument("--psel-every", type=int, default=0, metavar="N",
                       help="sample set-dueling counters every N accesses")
    trace.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also export tracer metrics (.json -> JSON, "
                            "anything else -> Prometheus text)")
    trace.add_argument("--no-verify", action="store_true",
                       help="skip the untraced reference run / replay check")
    trace.add_argument("--no-manifest", action="store_true",
                       help="skip writing the provenance manifest sidecar")

    verify = sub.add_parser(
        "verify",
        help="differential conformance: fuzz policies against oracles",
        description="Differentially fuzz registered policies against the "
                    "reference oracles over the deterministic stream family, "
                    "check per-access invariants, LUT-vs-walk kernel "
                    "identity, Belady dominance and the three committed "
                    "golden corpora.  Failures are shrunk to minimal "
                    "replayable counterexample artifacts.  Exit code 1 on "
                    "any failure.",
    )
    verify_target = verify.add_mutually_exclusive_group()
    verify_target.add_argument(
        "--policy", nargs="+", default=None, metavar="NAME",
        help="verify only these registry policies",
    )
    verify_target.add_argument(
        "--all", action="store_true", dest="all_policies",
        help="verify every registered policy (the default)",
    )
    verify.add_argument(
        "--fuzz-budget", type=int, default=None, metavar="N",
        help="total fuzz accesses per policy, split over the "
             "stream x seed x geometry grid (default: "
             "24000, or 6000 with --quick)",
    )
    verify.add_argument(
        "--quick", action="store_true",
        help="smaller budget and sparser invariant checking (CI smoke)",
    )
    verify.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1], metavar="SEED",
        help="stream seeds (default: 0 1)",
    )
    verify.add_argument(
        "--no-shrink", action="store_true",
        help="report raw counterexamples without ddmin shrinking",
    )
    verify.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="write replayable counterexample artifacts here",
    )
    verify.add_argument(
        "--replay", default=None, metavar="ARTIFACT",
        help="replay one counterexample artifact instead of fuzzing",
    )
    verify.add_argument(
        "--no-goldens", action="store_true",
        help="skip the golden-corpus drift check",
    )
    verify.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON report (+ provenance manifest sidecar) here",
    )

    serve = sub.add_parser(
        "serve",
        help="run the streaming Zipf key-value serving scenario",
        description="Stream a bounded-memory Zipf/churn/flash-crowd "
                    "key-value workload through the sharded serving "
                    "front-end and report sustained throughput, miss "
                    "rate and per-shard stats.  seed omitted => a "
                    "deterministic seed derived from the spec digest "
                    "(recorded in the provenance manifest).",
    )
    serve.add_argument(
        "--alpha", type=float, default=1.2,
        help="Zipf skew of key popularity (default: 1.2)",
    )
    serve.add_argument(
        "--keys", type=int, default=1 << 14, metavar="N",
        help="live key slots per tenant (default: 16384)",
    )
    serve.add_argument(
        "--tenants", type=int, default=1, metavar="N",
        help="interleaved tenants (default: 1)",
    )
    serve.add_argument(
        "--accesses", type=int, default=1 << 20, metavar="N",
        help="stream length (default: 1048576)",
    )
    serve.add_argument(
        "--churn", type=int, default=0, metavar="PER_MILLION",
        help="key-slot retirements per million accesses (default: 0)",
    )
    serve.add_argument(
        "--phases", type=int, default=0, metavar="N",
        help="evenly spaced flash-crowd phases (default: 0)",
    )
    serve.add_argument(
        "--policy", default="lru",
        help="lru | lip | static | gippr, or comma-separated IPV "
             "entries (default: lru)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="set-shards in the front-end (power of two; default: 1)",
    )
    serve.add_argument(
        "--sets", type=int, default=1024, metavar="N",
        help="cache sets (default: 1024)",
    )
    serve.add_argument(
        "--assoc", type=int, default=16, metavar="K",
        help="cache associativity (default: 16)",
    )
    serve.add_argument(
        "--engine", choices=("auto", "columnar", "scalar"),
        default="auto", help="per-shard engine (default: auto)",
    )
    serve.add_argument(
        "--chunk", type=int, default=1 << 16, metavar="N",
        help="accesses per front-end batch (default: 65536)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="stream seed (default: derived from the spec digest)",
    )
    serve.add_argument(
        "--status", default=None, metavar="PATH",
        help="publish live run status JSON here, latency and shard rows "
             "included (watch with `repro obs watch`)",
    )
    serve.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON report (+ provenance manifest) here",
    )
    serve.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the serving telemetry layer (per-shard batch and "
             "amortized per-access latency histograms)",
    )
    obs = sub.add_parser(
        "obs", help="inspect repro.obs artifacts (JSONL traces, metrics)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    for name, help_text in (
        ("summary", "per-kind event counts and access span"),
        ("validate", "strict schema validation of every event line"),
        ("replay", "replay the trace into hit/miss/eviction counts"),
    ):
        p = obs_sub.add_parser(name, help=help_text)
        p.add_argument("events", help="JSONL trace file")
    obs_metrics = obs_sub.add_parser(
        "metrics", help="rebuild the metrics registry from a trace and export"
    )
    obs_metrics.add_argument("events", help="JSONL trace file")
    obs_metrics.add_argument("--format", choices=["prometheus", "json"],
                             default="prometheus")

    obs_watch = obs_sub.add_parser(
        "watch", help="live terminal view of a run-status.json",
        description="Render a runner's atomically published run-status.json "
                    "as a refreshing terminal view.  Works from any shell "
                    "(the runner and the watcher only share the file); a "
                    "`repro serve` status adds latency and shard rows.  "
                    "Exits 0 once the run publishes its final status, 1 "
                    "if that status is failed.",
    )
    obs_watch.add_argument(
        "status", nargs="?", default=None, metavar="PATH",
        help="status file (default: $REPRO_STATUS_PATH)",
    )
    obs_watch.add_argument("--interval", type=float, default=1.0,
                           help="refresh interval in seconds (default 1.0)")
    obs_watch.add_argument("--once", action="store_true",
                           help="render one snapshot and exit")

    obs_analyze = obs_sub.add_parser(
        "analyze", help="miss-curve and GA-convergence analytics report",
        description="Profile a benchmark trace with the vectorized "
                    "Mattson profiler (LRU miss curve, stack-distance "
                    "and working-set stats) and/or render a GA "
                    "convergence log written by `repro evolve "
                    "--convergence-json`.  Reports render to the "
                    "terminal and optionally persist as JSON and "
                    "figure-ready CSV.",
    )
    obs_analyze.add_argument(
        "--benchmark", default=None, metavar="NAME",
        help="profile this benchmark's synthetic trace (e.g. 429.mcf)",
    )
    obs_analyze.add_argument("--simpoint", type=int, default=0,
                             help="simpoint index (default 0)")
    obs_analyze.add_argument("--length", type=int, default=30_000,
                             help="trace length in accesses (default 30000)")
    obs_analyze.add_argument(
        "--sets", type=int, default=None, metavar="N",
        help="also compute per-set histograms for an N-set cache "
             "(power of two)",
    )
    obs_analyze.add_argument("--max-distance", type=int, default=4096,
                             help="stack-distance cap (default 4096)")
    obs_analyze.add_argument("--seed", type=int, default=None,
                             help="trace derivation seed (default: config)")
    obs_analyze.add_argument(
        "--convergence", default=None, metavar="PATH",
        help="include this GA convergence log in the report",
    )
    obs_analyze.add_argument("--json", default=None, metavar="PATH",
                             help="write the report JSON here")
    obs_analyze.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write figure CSVs here (miss curve; convergence series "
             "lands next to it with a .convergence.csv suffix)",
    )

    return parser


def _cmd_policies() -> int:
    for name in policy_names():
        print(name)
    return 0


def _cmd_vectors() -> int:
    for name, vector in paper_vectors().items():
        print(transition_text(vector))
        print()
    return 0


def _cmd_compare(args) -> int:
    specs = [PolicySpec(name.upper() if name == "lru" else name, name)
             for name in args.policies]
    labels = [s.label for s in specs]
    if "LRU" not in labels:
        specs.insert(0, PolicySpec("LRU", "lru"))
    config = default_config(trace_length=args.length, num_sets=args.sets)
    cache = None if args.no_cache else (args.cache_dir or True)
    suite = run_suite(
        specs, config=config, benchmarks=args.benchmarks,
        workers=args.workers, cache=cache,
        status_path=args.status_json,
    )
    if suite.metrics is not None:
        logger.info("%s", suite.metrics.summary())
        if args.metrics_json:
            import json

            with open(args.metrics_json, "w") as handle:
                json.dump(suite.metrics.as_dict(), handle, indent=2)
            logger.info("metrics written to %s", args.metrics_json)
    print(speedup_table(suite, sort_by=specs[-1].label))
    if args.chart:
        print()
        print(bar_chart(
            suite.speedups(specs[-1].label),
            title=f"{specs[-1].label} speedup over LRU",
        ))
    return 0


def _cmd_evolve(args) -> int:
    import contextlib

    from .ga import FitnessEvaluator, evolve_ipv
    from .obs.spans import profiled

    config = default_config(trace_length=args.length)
    evaluator = FitnessEvaluator(
        args.benchmarks, config=config, substrate=args.substrate
    )
    profiling = args.profile or args.profile_folded
    scope = (
        profiled(args.profile, folded=args.profile_folded)
        if profiling else contextlib.nullcontext()
    )
    try:
        with scope:
            result = evolve_ipv(
                evaluator,
                population_size=args.population,
                generations=args.generations,
                seed=args.seed,
                workers=args.workers,
                status_path=args.status_json,
                convergence_path=args.convergence_json,
                on_generation=lambda g, f: logger.info(
                    "generation %d: best fitness %.4f", g, f
                ),
            )
    except ValueError as exc:
        print(f"cannot evolve: {exc}", file=sys.stderr)
        return 2
    if args.profile:
        logger.info("span profile written to %s", args.profile)
    if args.profile_folded:
        logger.info("folded stacks written to %s", args.profile_folded)
    print(transition_text(result.best))
    print(f"fitness (mean speedup over LRU): {result.best_fitness:.4f}")
    if result.memo is not None and result.memo["hits"]:
        print(
            f"fitness memo: {result.memo['hits']} duplicate evaluations "
            f"served from cache ({result.memo['hit_rate']:.0%} hit rate)"
        )
    if result.convergence:
        from .obs.analytics import render_convergence

        print("convergence:")
        print(render_convergence(result.convergence))
    if args.convergence_json:
        logger.info("convergence log written to %s", args.convergence_json)
    return 0


def _cmd_overhead() -> int:
    print(format_overhead(overhead_table()))
    return 0


def _cmd_cache(args) -> int:
    from .eval.parallel import ResultCache, default_cache_dir

    root = args.cache_dir or default_cache_dir()
    cache = ResultCache(root)
    if args.clear:
        removed = cache.clear()
        print(f"{root}: removed {removed} cached results")
    else:
        print(f"{root}: {len(cache)} cached results")
    return 0


def _cmd_simulate(args) -> int:
    from .eval.config import ExperimentConfig
    from .eval.runner import run_trace
    from .policies import make_policy
    from .trace import load_trace, paper_l1_l2_filter

    trace = load_trace(args.trace)
    print(f"loaded {trace!r}")
    if args.filter_l1l2:
        trace = paper_l1_l2_filter(trace)
        print(f"after L1/L2 filter: {len(trace):,} LLC accesses")
    config = ExperimentConfig(
        num_sets=args.sets,
        assoc=args.assoc,
        trace_length=len(trace),
        warmup_fraction=args.warmup,
        apply_env_scale=False,
    )
    policy = make_policy(args.policy, args.sets, args.assoc)
    result = run_trace(policy, trace, config)
    print(
        f"{policy.name}: {result.misses:,}/{result.accesses:,} misses "
        f"(rate {result.miss_rate:.4f}, mpki {result.mpki:.2f})"
    )
    return 0


def _cmd_trace_stats(args) -> int:
    from .obs.analytics import profile_trace

    benchmark = get_benchmark(args.benchmark)
    config = default_config(trace_length=args.length)
    print(f"{benchmark.name}: archetype {benchmark.archetype}, "
          f"{benchmark.instructions_per_access:.0f} instructions/access")
    for trace, weight in zip(
        benchmark.traces(config.trace_length, config.capacity_blocks),
        benchmark.weights(),
    ):
        profile = profile_trace(trace, max_distance=4096)
        reuses = profile.accesses - profile.cold_misses
        print(f"  {trace.name} (weight {weight:.2f}): "
              f"{len(trace):,} accesses, footprint {profile.footprint:,}, "
              f"cold {profile.cold_misses / len(trace):.1%}")
        if reuses:
            for threshold in (64, 256, 1024, 4096):
                mass = sum(profile.distance_counts[:threshold])
                print(f"    reuse within stack distance {threshold:>5}: "
                      f"{mass / reuses:.1%}")
    return 0


def _cmd_trace(args) -> int:
    import time

    from .eval.config import ExperimentConfig
    from .eval.runner import run_trace
    from .obs import JSONLSink, Tracer, build_manifest, read_jsonl, \
        replay_counts, write_manifest
    from .policies import make_policy

    benchmark = get_benchmark(args.benchmark)
    if not 0 <= args.simpoint < len(benchmark.simpoints):
        raise ValueError(
            f"{benchmark.name} has {len(benchmark.simpoints)} simpoints; "
            f"--simpoint {args.simpoint} is out of range"
        )
    config = ExperimentConfig(
        num_sets=args.sets,
        assoc=args.assoc,
        trace_length=args.length,
        warmup_fraction=args.warmup,
        seed=args.seed,
        apply_env_scale=False,
    )
    trace = benchmark.trace(
        args.simpoint, config.trace_length, config.capacity_blocks,
        seed=config.seed,
    )
    sampled = args.sample_sets is not None or args.sample_every != 1

    started = time.perf_counter()
    tracer = Tracer(
        sink=JSONLSink(args.out),
        sample_sets=args.sample_sets,
        sample_every=args.sample_every,
        psel_every=args.psel_every,
    )
    policy = make_policy(args.policy, args.sets, args.assoc)
    result = run_trace(policy, trace, config, tracer=tracer)
    tracer.close()
    wall = time.perf_counter() - started

    print(
        f"{policy.name} @ {trace.name}: {result.misses:,}/{result.accesses:,} "
        f"misses (rate {result.miss_rate:.4f}), "
        f"{tracer.events_emitted:,} events -> {args.out}"
    )

    code = 0
    if args.no_verify:
        logger.info("replay verification skipped (--no-verify)")
    elif sampled:
        logger.info("replay verification skipped: trace is sampled")
    else:
        reference_stats: dict = {}
        reference = run_trace(
            make_policy(args.policy, args.sets, args.assoc), trace, config,
            stats_sink=reference_stats,
        )
        replayed = replay_counts(read_jsonl(args.out))
        checks = {
            "hits": reference_stats["hits"],
            "misses": reference_stats["misses"],
            "evictions": reference_stats["evictions"],
            "accesses": reference_stats["accesses"],
            "bypasses": reference_stats["bypasses"],
        }
        mismatches = {
            k: (replayed[k], v) for k, v in checks.items() if replayed[k] != v
        }
        if mismatches:
            print(f"replay MISMATCH vs untraced run: {mismatches}",
                  file=sys.stderr)
            code = 1
        else:
            print(
                "replay OK: JSONL reproduces the untraced run exactly "
                f"(hits={checks['hits']:,}, misses={checks['misses']:,}, "
                f"evictions={checks['evictions']:,})"
            )
        assert reference.misses == result.misses  # traced == untraced sim

    if args.metrics_out:
        if args.metrics_out.endswith(".json"):
            payload = tracer.registry.dump_json()
        else:
            payload = tracer.registry.to_prometheus()
        with open(args.metrics_out, "w") as handle:
            handle.write(payload)
        logger.info("metrics written to %s", args.metrics_out)

    if not args.no_manifest:
        manifest = build_manifest(
            config=config,
            policy=args.policy,
            seed=args.seed,
            wall_time_sec=wall,
            extra={
                "benchmark": benchmark.name,
                "simpoint": args.simpoint,
                "events_path": str(args.out),
                "events_emitted": tracer.events_emitted,
                "sampled": sampled,
                "psel_every": args.psel_every,
            },
        )
        path = write_manifest(args.out, manifest)
        logger.info("manifest written to %s", path)
    return code


def _cmd_verify(args) -> int:
    from .verify import replay_artifact, verify_all, write_conformance_manifest
    from .verify.conformance import DEFAULT_FUZZ_BUDGET

    if args.replay is not None:
        try:
            divergence = replay_artifact(args.replay)
        except (OSError, ValueError) as exc:
            print(f"cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 2
        if divergence is None:
            print(f"{args.replay}: no longer reproduces (fixed, or flaky)")
            return 0
        print(f"{args.replay}: still diverges at access "
              f"{divergence.index} (block {divergence.block}): "
              f"[{divergence.kind}] {divergence.detail}")
        return 1

    policies = args.policy  # None -> every registered policy
    budget = args.fuzz_budget
    check_every = 1
    if args.quick:
        budget = budget if budget is not None else 6_000
        check_every = 16
    elif budget is None:
        budget = DEFAULT_FUZZ_BUDGET

    from .policies import policy_names

    names = policies or policy_names()
    report = verify_all(
        policies=policies,
        fuzz_budget=budget,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
        seeds=args.seeds,
        check_goldens=not args.no_goldens,
        check_every=check_every,
    )
    print(report.summary())
    if args.report:
        write_conformance_manifest(
            report, args.report,
            fuzz_budget=budget, seeds=args.seeds, policies=names,
        )
        logger.info("report written to %s", args.report)
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    from .serve import ServingSpec, auto_flash_phases, run_serving

    if "," in args.policy:
        policy = [int(e) for e in args.policy.split(",")]
    else:
        policy = args.policy
    spec = ServingSpec(
        keys=args.keys,
        alpha=args.alpha,
        tenants=args.tenants,
        accesses=args.accesses,
        churn_per_million=args.churn,
        phases=auto_flash_phases(args.accesses, args.phases),
        seed=args.seed,
    )
    if args.seed is None:
        print(f"seed: {spec.resolved_seed()} "
              f"(derived from spec digest {spec.digest()[:12]})")
    report = run_serving(
        spec,
        args.sets,
        args.assoc,
        policy=policy,
        shards=args.shards,
        engine=args.engine,
        chunk_accesses=args.chunk,
        status_path=args.status,
        report_path=args.report,
        telemetry=not args.no_telemetry,
    )
    print(
        f"{report.policy} @ {args.sets}x{args.assoc}, "
        f"{report.shards} shard(s), engine {report.engine}"
    )
    print(
        f"served {report.accesses:,} accesses in {report.wall_sec:.2f}s "
        f"({report.throughput:,.0f} accesses/sec)"
    )
    print(
        f"misses {report.misses:,} (rate {report.miss_rate:.4f}); "
        f"shed {report.shed:,} ({report.shed_ratio:.2%} of offered); "
        f"retired keys {report.retired:,}"
    )
    if report.telemetry is not None:
        latency = report.telemetry.get("latency", {})
        parts = [
            f"{q} {latency[q] * 1e9:,.0f}ns"
            for q in ("p50", "p90", "p99", "p99_9")
            if latency.get(q) is not None
        ]
        if parts:
            print("amortized latency/access: " + "  ".join(parts))
    if args.report:
        print(f"report written to {args.report}")
    return 0


def _cmd_obs(args) -> int:
    import json
    from collections import Counter as _Counter

    from .obs import read_jsonl, registry_from_events, replay_counts

    if args.obs_command == "validate":
        count = 0
        try:
            for _ in read_jsonl(args.events, validate=True):
                count += 1
        except ValueError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{args.events}: {count:,} events, all valid")
        return 0

    if args.obs_command == "summary":
        kinds: _Counter = _Counter()
        first = last = None
        for event in read_jsonl(args.events, validate=True):
            kinds[event.kind] += 1
            if first is None:
                first = event.access
            last = event.access
        total = sum(kinds.values())
        print(f"{args.events}: {total:,} events "
              f"(accesses {first}..{last})" if total else
              f"{args.events}: empty trace")
        for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1]):
            print(f"  {kind:<12} {count:>10,}")
        return 0

    if args.obs_command == "replay":
        counts = replay_counts(read_jsonl(args.events, validate=True))
        for key, value in counts.items():
            print(f"{key:<13} {value:>10,}")
        return 0

    if args.obs_command == "metrics":
        registry = registry_from_events(read_jsonl(args.events, validate=True))
        if args.format == "json":
            print(json.dumps(registry.to_json(), indent=2, sort_keys=True))
        else:
            sys.stdout.write(registry.to_prometheus())
        return 0

    if args.obs_command == "watch":
        return _cmd_obs_watch(args)

    if args.obs_command == "analyze":
        return _cmd_obs_analyze(args)

    raise AssertionError(f"unhandled obs command {args.obs_command}")


def _cmd_obs_watch(args) -> int:
    from .obs.status import default_status_path, watch

    path = args.status or default_status_path()
    if not path:
        print("no status file: pass a path or set $REPRO_STATUS_PATH",
              file=sys.stderr)
        return 2
    return watch(
        path,
        interval=args.interval,
        iterations=1 if args.once else None,
    )


def _cmd_obs_analyze(args) -> int:
    from .obs.analytics import (
        build_report,
        profile_trace,
        render_report,
        write_report,
    )

    if args.benchmark is None and args.convergence is None:
        print("nothing to analyze: pass --benchmark and/or --convergence",
              file=sys.stderr)
        return 2

    profile_payload = None
    meta = {}
    if args.benchmark is not None:
        benchmark = get_benchmark(args.benchmark)
        config = default_config(trace_length=args.length)
        seed = args.seed if args.seed is not None else config.seed
        if not 0 <= args.simpoint < len(benchmark.simpoints):
            raise ValueError(
                f"{benchmark.name} has {len(benchmark.simpoints)} "
                f"simpoints; --simpoint {args.simpoint} is out of range"
            )
        trace = benchmark.trace(
            args.simpoint, config.trace_length, config.capacity_blocks,
            seed=seed,
        )
        profile = profile_trace(
            trace, num_sets=args.sets, max_distance=args.max_distance
        )
        profile_payload = profile.to_json()
        meta.update(
            benchmark=benchmark.name, simpoint=args.simpoint,
            length=args.length, seed=seed,
        )
    if args.convergence is not None:
        meta["convergence_log"] = str(args.convergence)

    report = build_report(
        profile=profile_payload,
        convergence_path=args.convergence,
        meta=meta,
    )
    print(render_report(report))
    write_report(report, json_path=args.json, csv_path=args.csv)
    if args.json:
        logger.info("report JSON written to %s", args.json)
    if args.csv:
        logger.info("figure CSV written to %s", args.csv)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, verbose=args.verbose)
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "vectors":
        return _cmd_vectors()
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "evolve":
        return _cmd_evolve(args)
    if args.command == "overhead":
        return _cmd_overhead()
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace-stats":
        return _cmd_trace_stats(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly.
        sys.exit(0)
