"""Workload-neutral (WN1) and workload-inclusive (WI) vector evolution.

Section 4.4: to avoid training bias, WN1 holds each benchmark out of the GA
training set used to produce the vectors it is evaluated with; WI trains on
everything.  The paper finds WI only marginally better (Figure 12) — the
shape this module's experiments reproduce.

Multi-vector evolution (for DGIPPR) is underspecified in the paper ("we
evolve several IPVs off-line").  We use the natural construction: partition
the training benchmarks into as many behaviour groups as vectors (by LRU
miss rate, the axis that separates thrash-prone from cache-friendly
workloads) and evolve one specialist vector per group.  This matches the
paper's observation that the published vector sets duel PLRU-insertion
against PMRU-insertion specialists (Section 5.3.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.ipv import IPV, lru_ipv
from ..engine.scalar import simulate_misses_lru_ipv
from ..workloads.spec import SPEC_BENCHMARKS, benchmark_names
from .config import ExperimentConfig, default_config

# NOTE: repro.ga imports repro.eval.config, so importing repro.ga at module
# scope here would close an import cycle; the GA machinery is imported
# lazily inside the functions that need it.

__all__ = [
    "lru_miss_rates",
    "partition_benchmarks",
    "evolve_duel_vectors",
    "evolve_wn1_vectors",
]


def lru_miss_rates(
    benchmarks: Sequence[str], config: ExperimentConfig
) -> Dict[str, float]:
    """Measured-window LRU miss rate per benchmark (weighted by simpoint)."""
    baseline = tuple(lru_ipv(config.assoc).entries)
    rates: Dict[str, float] = {}
    for name in benchmarks:
        benchmark = SPEC_BENCHMARKS[name]
        traces = benchmark.traces(
            config.trace_length, config.capacity_blocks, seed=config.seed
        )
        rate = 0.0
        for trace, weight in zip(traces, benchmark.weights()):
            addresses = trace.address_list()
            warmup = config.warmup_accesses
            misses = simulate_misses_lru_ipv(
                addresses, config.num_sets, config.assoc, baseline, warmup
            )
            measured = max(1, len(addresses) - warmup)
            rate += weight * misses / measured
        rates[name] = rate
    return rates


def partition_benchmarks(
    benchmarks: Sequence[str],
    num_groups: int,
    config: ExperimentConfig,
) -> List[List[str]]:
    """Split benchmarks into contiguous LRU-miss-rate bands, friendly first."""
    if num_groups < 1:
        raise ValueError("need at least one group")
    rates = lru_miss_rates(benchmarks, config)
    ordered = sorted(benchmarks, key=lambda b: rates[b])
    groups: List[List[str]] = [[] for _ in range(num_groups)]
    for i, name in enumerate(ordered):
        groups[i * num_groups // len(ordered)].append(name)
    return [g for g in groups if g]


def evolve_duel_vectors(
    benchmarks: Sequence[str],
    num_vectors: int,
    config: Optional[ExperimentConfig] = None,
    population_size: int = 24,
    generations: int = 6,
    seed: int = 0,
    workers: int = 0,
    substrate: str = "plru",
) -> List[IPV]:
    """Evolve ``num_vectors`` specialist IPVs over a training set."""
    from ..ga.fitness import FitnessEvaluator
    from ..ga.genetic import evolve_ipv

    config = config or default_config(trace_length=20_000)
    groups = partition_benchmarks(benchmarks, num_vectors, config)
    vectors: List[IPV] = []
    for index, group in enumerate(groups):
        evaluator = FitnessEvaluator(group, config=config, substrate=substrate)
        result = evolve_ipv(
            evaluator,
            population_size=population_size,
            generations=generations,
            seed=seed * 677 + index,
            workers=workers,
        )
        vectors.append(result.best.with_name(f"evolved-g{index}"))
    return vectors


def evolve_wn1_vectors(
    num_vectors: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[ExperimentConfig] = None,
    population_size: int = 24,
    generations: int = 6,
    seed: int = 0,
    workers: int = 0,
    substrate: str = "plru",
) -> Dict[str, List[IPV]]:
    """WN1 cross-validation: per benchmark, vectors trained without it.

    Returns ``{held_out_benchmark: [vectors trained on the other n-1]}``.
    This is the honest but expensive methodology; scale ``benchmarks`` or
    the GA parameters down for quick runs.
    """
    benchmarks = list(benchmarks or benchmark_names())
    out: Dict[str, List[IPV]] = {}
    for held_out in benchmarks:
        training = [b for b in benchmarks if b != held_out]
        out[held_out] = evolve_duel_vectors(
            training,
            num_vectors,
            config=config,
            population_size=population_size,
            generations=generations,
            seed=seed,
            workers=workers,
            substrate=substrate,
        )
    return out
