"""IPV search: genetic algorithm, random sampling and hill climbing."""

from .fitness import (
    FitnessEvaluator,
    clear_workload_memo,
    simulate_misses_lru_ipv,
    simulate_misses_plru_ipv,
)
from .genetic import GAResult, crossover, evolve_ipv, mutate
from .hillclimb import HillClimbResult, hill_climb
from .parallel import FitnessMemo, PopulationEvaluator
from .random_search import random_search
from .systematic import derive_ipv, derive_ipv_for_benchmarks

__all__ = [
    "FitnessEvaluator",
    "PopulationEvaluator",
    "clear_workload_memo",
    "simulate_misses_lru_ipv",
    "simulate_misses_plru_ipv",
    "GAResult",
    "evolve_ipv",
    "crossover",
    "mutate",
    "HillClimbResult",
    "hill_climb",
    "random_search",
    "FitnessMemo",
    "derive_ipv",
    "derive_ipv_for_benchmarks",
]
