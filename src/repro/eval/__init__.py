"""Evaluation harness: configs, runners, suite experiments and metrics."""

from .config import ExperimentConfig, default_config, paper_scale_config
from .crossval import (
    evolve_duel_vectors,
    evolve_wn1_vectors,
    lru_miss_rates,
    partition_benchmarks,
)
from .experiments import STANDARD_POLICIES, PolicySpec, SuiteResult, run_suite
from .parallel import (
    MatrixResult,
    ParallelRunner,
    ResultCache,
    RunnerMetrics,
    cache_key,
    default_cache_dir,
    run_matrix,
)
from .ipc import estimate_ipc, ipc_speedup
from .multicore import CoreResult, MulticoreResult, run_multicore
from .sweeps import crossover_size, miss_ratio_curve
from .metrics import (
    geometric_mean,
    memory_intensive_subset,
    normalized_map,
    speedup_map,
)
from .overhead import overhead_row, overhead_table
from .reporting import (
    format_overhead,
    format_table,
    memory_intensive_summary,
    normalized_mpki_table,
    speedup_table,
)
from .runner import BenchmarkResult, RunResult, run_benchmark, run_trace

__all__ = [
    "ExperimentConfig",
    "default_config",
    "paper_scale_config",
    "PolicySpec",
    "SuiteResult",
    "run_suite",
    "STANDARD_POLICIES",
    "MatrixResult",
    "ParallelRunner",
    "ResultCache",
    "RunnerMetrics",
    "cache_key",
    "default_cache_dir",
    "run_matrix",
    "CoreResult",
    "MulticoreResult",
    "run_multicore",
    "estimate_ipc",
    "ipc_speedup",
    "miss_ratio_curve",
    "crossover_size",
    "RunResult",
    "BenchmarkResult",
    "run_trace",
    "run_benchmark",
    "geometric_mean",
    "speedup_map",
    "normalized_map",
    "memory_intensive_subset",
    "overhead_row",
    "overhead_table",
    "format_table",
    "format_overhead",
    "memory_intensive_summary",
    "speedup_table",
    "normalized_mpki_table",
    "lru_miss_rates",
    "partition_benchmarks",
    "evolve_duel_vectors",
    "evolve_wn1_vectors",
]
