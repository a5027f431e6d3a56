"""One unit of a benchmark workload, run in a fresh process.

    python3 perfbench/unit.py --workload serve-zipf --seed 1 --rep 0 \
        [--trace] [--check]

``perfbench/run.py`` starts one such process per unit with a cleaned
environment, so compiled tables, trace memos and the fitness memo never
carry over from one unit to the next: each unit pays what a fresh
``repro serve`` / ``repro evolve`` / ``repro compare`` process pays.
The last line of standard output is one JSON object describing the unit.

Outputs are checked after the timed region; each mismatch is one failed
operation.  Only ``repro.verify`` and public entry points are called.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time starts before numpy and repro import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

import numpy  # noqa: E402
import repro  # noqa: E402
from repro.core.ipv import lru_ipv  # noqa: E402
from repro.eval import parallel  # noqa: E402
from repro.eval.config import default_config  # noqa: E402
from repro.eval.experiments import PolicySpec, run_suite  # noqa: E402
from repro.ga.fitness import FitnessEvaluator  # noqa: E402
from repro.ga.genetic import evolve_ipv  # noqa: E402
from repro.kernels import kernel_provenance  # noqa: E402
from repro.kernels import tables as kernel_tables  # noqa: E402
from repro.serve.frontend import ShardedFrontend  # noqa: E402
from repro.serve.service import run_serving  # noqa: E402
from repro.serve.workload import (  # noqa: E402
    ServingSpec,
    ServingStream,
    auto_flash_phases,
)
from repro.verify import LRUStackOracle, PLRUPositionsOracle  # noqa: E402
from repro.workloads.spec import SPEC_BENCHMARKS, benchmark_names  # noqa: E402

from layers import LayerTracer  # noqa: E402

# serve-zipf: `repro serve`'s shape on bench_serving.py's stream.
SERVE_SETS = 1024
SERVE_WAYS = 16
SERVE_BATCH = 1 << 16
SERVE_ACCESSES = 10_000_000

# ga-plru: `repro evolve`'s default shape on a fixed training set.
GA_TRAINING = ("429.mcf", "462.libquantum", "471.omnetpp", "483.xalancbmk")
GA_LENGTH = 10_000
GA_POPULATION = 24
GA_GENERATIONS = 8

# compare-suite: `repro compare`'s default shape (the Figure 11 line-up).
COMPARE_POLICIES = ("lru", "plru", "drrip", "pdp", "dgippr")
COMPARE_LENGTH = 20_000
COMPARE_SETS = 64
#: Policies whose cells are re-simulated by an independent oracle.
COMPARE_CHECKED = ("lru", "plru", "dgippr")

#: Seconds of work between speed probes inside an untraced unit.
PROBE_EVERY_S = 1.0


def serving_spec(seed: int) -> ServingSpec:
    """Two tenants, key churn and two flash crowds over a Zipf(1.2) law."""
    return ServingSpec(
        keys=1 << 15,
        alpha=1.2,
        tenants=2,
        accesses=SERVE_ACCESSES,
        churn_per_million=20_000,
        phases=auto_flash_phases(SERVE_ACCESSES, 2, share=0.5, hot_keys=64),
        seed=seed,
    )


def ga_config(seed: int):
    return default_config(trace_length=GA_LENGTH, seed=seed)


def ga_rng_seed(seed: int, rep: int) -> int:
    """GA search seed of one repetition.

    How much a GA run simulates depends on its trajectory (duplicate
    genomes are served by the fitness memo), so repetitions search from
    different seeds and the run reports the median over trajectories.
    """
    return seed * 1000 + rep


def compare_config(seed: int):
    return default_config(
        trace_length=COMPARE_LENGTH, num_sets=COMPARE_SETS, seed=seed
    )


def compare_label(policy: str) -> str:
    """The suite label `repro compare` gives a policy."""
    return "LRU" if policy == "lru" else policy


# ----------------------------------------------------------------------
# Workloads.  Each sets up, runs its timed region and returns
# ``(result, check)``; ``check()`` runs after tracing is removed and
# returns the number of failed operations it found.
# ----------------------------------------------------------------------
def serve_zipf(seed: int, rep: int, clock):
    spec = serving_spec(seed)
    entries = tuple(lru_ipv(SERVE_WAYS).entries)
    kernel_tables.compile_tables(SERVE_WAYS, entries)
    ready = perf_counter()

    batches = []  # (seconds, misses) per ShardedFrontend.process call
    process = ShardedFrontend.process

    def timed_process(self, batch):
        start = perf_counter()
        misses = process(self, batch)
        batches.append((perf_counter() - start, misses))
        clock.tick()
        return misses

    ShardedFrontend.process = timed_process
    try:
        report = run_serving(
            spec, SERVE_SETS, SERVE_WAYS, policy="lru", shards=1,
            chunk_accesses=SERVE_BATCH,
        )
    finally:
        ShardedFrontend.process = process
    done = perf_counter()
    misses = [int(m) for _, m in batches]
    result = {
        "inputs": f"seed={seed}",
        "ops": len(batches) + report.shed,
        "failed": report.shed,
        "ready": ready,
        "work_s": done - ready,
        "accesses": report.accesses,
        "outputs": misses,
        "batch_ms": [s * 1e3 for s, _ in batches],
        "shed": report.shed,
        "exact": {"serve.miss_rate": report.miss_rate},
    }

    def check() -> int:
        # The positions oracle takes ~2 s per batch: replay the first.
        first = next(ServingStream(spec).chunks(SERVE_BATCH))
        oracle = PLRUPositionsOracle(SERVE_SETS, SERVE_WAYS)
        return int(oracle.run(first.tolist()) != misses[0])

    return result, check


def ga_plru(seed: int, rep: int, clock):
    config = ga_config(seed)
    evaluator = FitnessEvaluator(GA_TRAINING, config=config, substrate="plru")
    ready = perf_counter()
    search_seed = ga_rng_seed(seed, rep)
    run = evolve_ipv(
        evaluator, population_size=GA_POPULATION,
        generations=GA_GENERATIONS, seed=search_seed, workers=0,
        on_generation=clock.tick,
    )
    done = perf_counter()
    lane_accesses = config.trace_length * sum(
        len(SPEC_BENCHMARKS[name].simpoints) for name in GA_TRAINING
    )
    result = {
        "inputs": f"seed={seed} search={search_seed}",
        "ops": run.evaluations,
        "failed": 0,
        "ready": ready,
        "work_s": done - ready,
        # Memo hits simulate nothing; only memo misses are lanes run.
        "accesses": run.memo["misses"] * lane_accesses,
        "outputs": [run.best_fitness],
        "memo_hit_ratio": run.memo["hit_rate"],
        "exact": {"ga.best_fitness": run.best_fitness},
    }

    def check() -> int:
        return int(evaluator.evaluate(run.best) != run.best_fitness)

    return result, check


def compare_suite(seed: int, rep: int, clock):
    config = compare_config(seed)
    specs = [PolicySpec(compare_label(p), p) for p in COMPARE_POLICIES]
    ready = perf_counter()
    run_trace = parallel.run_trace

    def ticking_run_trace(*args, **kwargs):
        result = run_trace(*args, **kwargs)
        clock.tick()
        return result

    parallel.run_trace = ticking_run_trace
    try:
        suite = run_suite(specs, config=config, workers=0, cache=None)
    finally:
        parallel.run_trace = run_trace
    done = perf_counter()
    cells = [
        run.misses
        for label in suite.labels
        for bench in suite.benchmarks
        for run in suite.results[label][bench].runs
    ]
    result = {
        "inputs": f"seed={seed}",
        "ops": len(cells),
        "failed": 0,
        "ready": ready,
        "work_s": done - ready,
        "accesses": len(cells) * config.trace_length,
        "outputs": cells,
        "exact": {
            "compare.dgippr_miss_pct":
                100.0 * suite.geomean_normalized_mpki("dgippr"),
        },
    }

    def check() -> int:
        names = benchmark_names()
        oracles = {
            "lru": LRUStackOracle(COMPARE_SETS, config.assoc),
            "plru": PLRUPositionsOracle(COMPARE_SETS, config.assoc),
            "dgippr": PLRUPositionsOracle.for_dgippr(
                COMPARE_SETS, config.assoc
            ),
        }
        failed = 0
        for offset, policy in enumerate(COMPARE_CHECKED):
            bench = names[(seed + offset) % len(names)]
            trace = SPEC_BENCHMARKS[bench].trace(
                0, config.trace_length, config.capacity_blocks,
                seed=config.seed,
            )
            addresses = trace.address_list()
            warmup = int(len(addresses) * config.warmup_fraction)
            oracle = oracles[policy]
            oracle.run(addresses[:warmup])
            expected = oracle.run(addresses[warmup:])
            cell = suite.results[compare_label(policy)][bench].runs[0]
            failed += cell.misses != expected
        return failed

    return result, check


WORKLOADS = {
    "serve-zipf": serve_zipf,
    "ga-plru": ga_plru,
    "compare-suite": compare_suite,
}


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def speed_probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    On a shared virtual machine the CPU's speed drifts by tens of percent
    over seconds to minutes.  ``run.py`` scales each unit's times by the
    unit's mean probe (see ``SpeedClock``) to cancel that drift.
    """
    start = perf_counter()
    table = {}
    for i in range(150_000):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
    # Small arrays: the probe adds about 1 MiB to a unit's peak RSS.
    data = (numpy.arange(1 << 16, dtype=numpy.int64) * 0x9E3779B1) & 0xFFFF
    for _ in range(24):
        data = data[numpy.argsort(data, kind="stable")] ^ 0x5A5A
    return perf_counter() - start


class SpeedClock:
    """Speed probes before, during and after a unit's timed region.

    The speed swings by tens of percent within seconds, so probes taken
    only around a unit of several seconds misjudge the speed it ran at.
    The workloads call ``tick()`` between operations (serving batches, GA
    generations, suite cells); it probes again once ``every`` seconds
    have passed since the last probe.  ``spent`` is the time those probes
    took inside the timed region, which the unit's timings leave out.
    """

    def __init__(self, every: float):
        self.every = every
        self.probes = [speed_probe()]
        self.spent = 0.0
        self._last = perf_counter()

    def tick(self, *_):
        start = perf_counter()
        if start - self._last >= self.every:
            self.probes.append(speed_probe())
            self._last = perf_counter()
            self.spent += self._last - start

    def finish(self) -> float:
        """Probe once more; the mean probe of the unit."""
        self.probes.append(speed_probe())
        return sum(self.probes) / len(self.probes)


def run_unit(workload: str, seed: int, rep: int, trace: bool,
             check: bool) -> dict:
    """Run one unit in this process; the dict ``main`` prints.

    A unit whose workload raises reports one failed operation and the
    traceback instead of metrics; the run goes on with its other units.
    """
    # Traced units probe only around their work, never inside a layer's span.
    clock = SpeedClock(math.inf if trace else PROBE_EVERY_S)
    tracer = LayerTracer().install() if trace else None
    kernels_before = kernel_provenance()["counters"]
    start, cpu_start = perf_counter(), cpu_seconds()
    try:
        result, checker = WORKLOADS[workload](seed, rep, clock)
    except Exception:
        return {"ops": 1, "failed": 1, "error": traceback.format_exc()}
    finally:
        if tracer is not None:
            tracer.restore()
    result["region_s"] = perf_counter() - start - clock.spent
    result["work_s"] -= clock.spent
    result["cpu_s"] = cpu_seconds() - cpu_start
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    result["probe_s"] = clock.finish()
    result["setup_s"] = result.pop("ready") - T0 - clock.probes[0]
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        kernels_after = kernel_provenance()["counters"]
        result["layers"] = dict(tracer.self_s)
        result["outer_s"] = tracer.outer_s
        result["calls"] = dict(tracer.calls)
        result["counts"] = dict(tracer.counts)
        result["kernels"] = {
            key: kernels_after[key] - kernels_before[key]
            for key in ("compiles", "cache_hits", "cache_misses")
        }
        result["lane_tables_bytes"] = tracer.lane_tables_bytes()
    result["check_s"] = 0.0
    if check:
        began = perf_counter()
        try:
            result["failed"] += checker()
        except Exception:
            result["failed"] += 1
            result["error"] = traceback.format_exc()
        result["check_s"] = perf_counter() - began
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"repro imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = run_unit(args.workload, args.seed, args.rep, args.trace,
                      args.check)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
