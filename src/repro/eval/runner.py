"""Trace-driven simulation runner.

Mirrors the paper's methodology (Section 4.3): warm the cache on a prefix of
the trace, measure misses on the remainder, and estimate CPI from the miss
count with a linear model.  Results are aggregated across a benchmark's
simpoints by SimPoint weight (Section 4.6).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence

from ..cache.cache import SetAssociativeCache
from ..core.plru import is_power_of_two
from ..engine.scalar import simulate_duel, simulate_misses_lru_ipv
from ..policies.base import ReplacementPolicy
from ..policies.lru import TrueLRUPolicy
from ..policies.pdp import PDPPolicy, simulate_pdp
from ..policies.plru import DGIPPRPolicy, GIPPRPolicy, TreePLRUPolicy
from ..policies.registry import make_policy
from ..policies.rrip import DRRIPPolicy, simulate_drrip
from ..trace.record import Trace, annotate_next_use
from ..workloads.spec import SpecBenchmark
from .config import ExperimentConfig

__all__ = ["RunResult", "BenchmarkResult", "run_trace", "run_benchmark"]


class RunResult:
    """Measured-window statistics for one trace under one policy."""

    __slots__ = (
        "trace_name",
        "policy_name",
        "accesses",
        "misses",
        "instructions",
        "mpki",
        "miss_positions",
    )

    def __init__(
        self,
        trace_name: str,
        policy_name: str,
        accesses: int,
        misses: int,
        instructions: int,
        miss_positions: Optional[List[int]] = None,
    ):
        self.trace_name = trace_name
        self.policy_name = policy_name
        self.accesses = accesses
        self.misses = misses
        self.instructions = instructions
        self.mpki = 1000.0 * misses / instructions if instructions else 0.0
        self.miss_positions = miss_positions

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunResult({self.trace_name} @ {self.policy_name}: "
            f"misses={self.misses}/{self.accesses}, mpki={self.mpki:.2f})"
        )


class BenchmarkResult:
    """Simpoint-weighted aggregate for one benchmark under one policy."""

    __slots__ = ("benchmark", "policy_name", "runs", "weights", "misses", "mpki", "instructions")

    def __init__(
        self,
        benchmark: str,
        policy_name: str,
        runs: Sequence[RunResult],
        weights: Sequence[float],
    ):
        if len(runs) != len(weights):
            raise ValueError("one weight per simpoint run required")
        self.benchmark = benchmark
        self.policy_name = policy_name
        self.runs = list(runs)
        self.weights = list(weights)
        # The weights are the fractions of total executed instructions each
        # simpoint represents, so misses and instructions are weighted sums.
        # MPKI is then defined as *weighted misses over weighted
        # instructions* — a single consistent ratio.  (Averaging per-run
        # MPKIs by weight is NOT equivalent when simpoints have different
        # instruction counts: it double-weights short simpoints and breaks
        # the ``1000 * misses / instructions == mpki`` invariant.)
        self.misses = sum(r.misses * w for r, w in zip(runs, weights))
        self.instructions = sum(
            r.instructions * w for r, w in zip(runs, weights)
        )
        self.mpki = (
            1000.0 * self.misses / self.instructions if self.instructions else 0.0
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BenchmarkResult({self.benchmark} @ {self.policy_name}: "
            f"mpki={self.mpki:.2f})"
        )


def _lru_engine(policy, addresses, warmup, miss_indices):
    if not len(addresses):
        return 0  # the loop rejects an empty measured window
    return simulate_misses_lru_ipv(
        addresses.tolist(), policy.num_sets, policy.assoc,
        policy.ipv.entries, warmup, miss_indices,
    )


def _duel_engine(policy, addresses, warmup, miss_indices):
    return simulate_duel(
        addresses, policy.num_sets, policy.assoc,
        [ipv.entries for ipv in policy.ipvs], policy.selector, warmup,
        policy.kernel_mode, miss_indices,
    )


#: Whole-trace engines by exact policy type (subclasses change behaviour).
_ENGINES = {
    TrueLRUPolicy: _lru_engine,
    TreePLRUPolicy: _duel_engine,
    GIPPRPolicy: _duel_engine,
    DGIPPRPolicy: _duel_engine,
    DRRIPPolicy: simulate_drrip,
    PDPPolicy: simulate_pdp,
}


def _per_access(policy, trace, config, warmup, miss_indices, tracer):
    """Drive ``trace`` through a fresh cache; the measured window's stats."""
    cache = SetAssociativeCache(
        config.num_sets, config.assoc, policy, block_size=1, name=trace.name
    )
    access = cache.access
    needs_future = getattr(policy, "requires_future", False)
    next_use = annotate_next_use(trace) if needs_future else None

    # One pass over the (address, pc) pairs: the first ``warmup`` warm the
    # cache, the rest are measured.
    stream = zip(trace.address_list(), trace.pc_list())
    if needs_future:
        for i, (address, pc) in enumerate(islice(stream, warmup)):
            access(address, pc, next_use=next_use[i])
    else:
        for address, pc in islice(stream, warmup):
            access(address, pc)
    cache.reset_stats()
    if tracer is not None:
        cache.attach_tracer(tracer)

    if needs_future:
        for i, (address, pc) in enumerate(stream, warmup):
            hit = access(address, pc, next_use=next_use[i])
            if not hit and miss_indices is not None:
                miss_indices.append(i)
    elif miss_indices is not None:
        for i, (address, pc) in enumerate(stream, warmup):
            if not access(address, pc):
                miss_indices.append(i)
    else:
        for address, pc in stream:
            access(address, pc)
    return cache.stats


def run_trace(
    policy: ReplacementPolicy,
    trace: Trace,
    config: ExperimentConfig,
    collect_miss_positions: bool = False,
    tracer=None,
    stats_sink: Optional[Dict] = None,
) -> RunResult:
    """Run one trace through a fresh cache built around ``policy``.

    The first ``config.warmup_fraction`` of accesses warm the cache
    (statistics are discarded), the rest are measured — the 500M-warm /
    1B-measure split of the paper, proportionally.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) is attached *after*
    warmup, so the event stream covers exactly the measured window: a
    full, unsampled trace replays to the same hit/miss/eviction counts as
    the returned :class:`RunResult` (see
    :func:`repro.obs.tracer.replay_counts`).

    ``stats_sink``, when given a dict, receives the full
    :meth:`~repro.cache.stats.CacheStats.snapshot` of the measured window
    (hits, evictions, writebacks, ... — more than :class:`RunResult`
    carries), which is what the trace-replay verification compares against.

    Without ``tracer`` and ``stats_sink``, a policy whose exact type is in
    ``_ENGINES`` (true LRU, tree PLRU, GIPPR, DGIPPR, DRRIP and PDP) runs
    on a whole-trace engine with the same result: one of
    :mod:`repro.engine.scalar`, or ``simulate_drrip``/``simulate_pdp``
    next to the policy.  The engine uses the policy as a description: it
    does not advance its per-set state, but leaves its global state (a
    selector, the BRRIP fill count, PDP's PD and histogram) where the
    per-access run would.  Every other policy, and any run with a
    ``tracer`` or ``stats_sink``, goes through
    :meth:`~repro.cache.cache.SetAssociativeCache.access` one access at a
    time (``stats_sink={}`` therefore forces that path).
    """
    n = len(trace)
    warmup = int(n * config.warmup_fraction)
    miss_indices: Optional[List[int]] = [] if collect_miss_positions else None
    engine = None
    if (
        tracer is None
        and stats_sink is None
        and policy.num_sets == config.num_sets
        and policy.assoc == config.assoc
        and is_power_of_two(config.num_sets)
    ):
        # (A geometry mismatch takes the per-access path, whose cache
        # raises the error.)
        engine = _ENGINES.get(type(policy))
    if engine is not None:
        accesses = n - warmup
        misses = engine(policy, trace.addresses, warmup, miss_indices)
    else:
        stats = _per_access(
            policy, trace, config, warmup, miss_indices, tracer
        )
        accesses, misses = stats.accesses, stats.misses

    # Real instruction positions when the trace is annotated (see
    # repro.trace.assign_instruction_positions); uniform spacing otherwise.
    positions = trace.position_list()
    if positions is not None and warmup < n:
        # The measured window starts at the instruction position of the
        # first measured access and runs to the end of the trace.  Using
        # the uniform estimate here would make the MPKI denominator
        # disagree with the ``miss_positions`` timeline whenever the
        # annotation is non-uniform (bursty traces).
        measured_instructions = max(1, trace.instructions - positions[warmup])
    else:
        measured_instructions = max(
            1, int(trace.instructions * (1.0 - config.warmup_fraction))
        )
    miss_positions: Optional[List[int]] = None
    if miss_indices is not None:
        if positions is not None:
            miss_positions = [positions[i] for i in miss_indices]
        else:
            instructions_per_access = trace.instructions / max(1, n)
            miss_positions = [
                int(i * instructions_per_access) for i in miss_indices
            ]

    if stats_sink is not None:
        stats.instructions = measured_instructions
        stats_sink.update(stats.snapshot())
    return RunResult(
        trace.name,
        policy.name,
        accesses=accesses,
        misses=misses,
        instructions=measured_instructions,
        miss_positions=miss_positions,
    )


def run_benchmark(
    policy_name: str,
    benchmark: SpecBenchmark,
    config: ExperimentConfig,
    policy_kwargs: Optional[Dict] = None,
    traces: Optional[Sequence[Trace]] = None,
    collect_miss_positions: bool = False,
) -> BenchmarkResult:
    """Run every simpoint of a benchmark; aggregate by SimPoint weight.

    A fresh policy instance is built per simpoint (simpoints are independent
    program phases simulated separately, as in the paper).
    """
    if traces is None:
        traces = benchmark.traces(
            config.trace_length, config.capacity_blocks, seed=config.seed
        )
    runs = []
    for trace in traces:
        policy = make_policy(
            policy_name, config.num_sets, config.assoc, **(policy_kwargs or {})
        )
        runs.append(
            run_trace(policy, trace, config, collect_miss_positions)
        )
    return BenchmarkResult(
        benchmark.name, policy_name, runs, benchmark.weights()
    )
