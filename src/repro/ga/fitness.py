"""GA fitness function (paper Section 4.3).

The fitness of an IPV is the arithmetic-mean estimated speedup over true
LRU across a set of workload traces, with CPI estimated as a linear
function of miss count — exactly the paper's simplified fitness, which it
notes runs in minutes where a performance simulation takes hours.

The evaluator uses two specialised simulators (true-LRU-IPV and
PLRU-IPV, both in :mod:`repro.engine.scalar`; the LRU one is re-exported
here) that skip the general cache machinery: the GA calls them millions
of times, so the hot loops run on plain lists and ints.  The PLRU simulator
is one ``feed`` of :class:`~repro.engine.scalar.ScalarStreamSimulator`,
which steps the precompiled transition tables of :mod:`repro.kernels`
(O(1) ``array('H')`` lookups in place of three ``log2(k)`` bit-walks per
access) or the bit-walk reference; populations go through the columnar
batch engine instead (:meth:`FitnessEvaluator.evaluate_many`).

Workload sharing: generated traces, their MLP instruction positions and
the baseline LRU miss counts are memoized at module level keyed by the
exact trace derivation ``(benchmark, trace_length, capacity, seed)``, so
every :class:`FitnessEvaluator` instance in a process — including the GA
worker processes of :mod:`repro.ga.parallel` — shares one copy instead of
regenerating and re-simulating per instance.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ipv import IPV, lru_ipv
from ..engine.columnar import (
    DEFAULT_AUTO_MIN_LANES,
    BatchSimulator,
    ColumnarTrace,
    columnar_supported,
    simulate_misses_plru_columnar,
)
from ..engine.scalar import (
    ScalarStreamSimulator,
    _validate_ipv_entries,
    _validate_window,
    simulate_misses_lru_ipv,
)
from ..eval.config import ExperimentConfig, default_config
from ..kernels import record_kernel_call
from ..timing import LinearCPIModel
from ..workloads.spec import SPEC_BENCHMARKS, benchmark_names

__all__ = [
    "simulate_misses_lru_ipv",
    "simulate_misses_plru_ipv",
    "FitnessEvaluator",
    "clear_workload_memo",
]


def simulate_misses_plru_ipv(
    addresses: Sequence[int],
    num_sets: int,
    assoc: int,
    entries: Sequence[int],
    warmup: int,
    miss_indices: Optional[List[int]] = None,
    kernel: str = "auto",
) -> int:
    """Misses in the measured window for an IPV on tree-PLRU state.

    ``kernel`` selects the implementation: ``"auto"`` (default) uses the
    precompiled transition tables of :mod:`repro.kernels` when available
    and falls back to the bit-walk reference otherwise; ``"lut"`` demands
    tables (raises when unsupported); ``"walk"`` forces the reference
    (all three are one :class:`~repro.engine.scalar.ScalarStreamSimulator`
    feed); ``"columnar"`` runs the batch engine of
    :mod:`repro.engine.columnar`.  All paths are bit-identical.
    ``miss_indices``, when given, collects the access index of every
    measured miss (for MLP-aware fitness).
    """
    _validate_ipv_entries(entries, assoc)
    _validate_window(addresses, warmup)
    if kernel == "columnar":
        record_kernel_call("columnar")
        return simulate_misses_plru_columnar(
            addresses, num_sets, assoc, entries, warmup, miss_indices
        )
    simulator = ScalarStreamSimulator(
        num_sets, assoc, entries, warmup, kernel=kernel
    )
    record_kernel_call(simulator.kernel)
    return simulator.feed(addresses, miss_indices)


# ----------------------------------------------------------------------
# Shared workload / baseline memos.
#
# Keys mirror the trace derivation in SpecBenchmark.trace exactly; two
# evaluators (or one evaluator and a GA worker) with the same geometry and
# seed therefore share address lists by reference and never re-simulate
# the LRU baseline.  Bounded LRU to keep long-lived processes flat.
# ----------------------------------------------------------------------
_WORKLOAD_MEMO: "OrderedDict[tuple, list]" = OrderedDict()
_POSITIONS_MEMO: "OrderedDict[tuple, list]" = OrderedDict()
_BASELINE_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
_COLUMNAR_MEMO: "OrderedDict[tuple, object]" = OrderedDict()
_WORKLOAD_MEMO_LIMIT = 64
_BASELINE_MEMO_LIMIT = 256
#: Step-transposed layouts are the largest memoized objects (a few x the
#: address list), so their LRU bound is the tightest: 32 comfortably
#: covers a 29-benchmark matrix at one geometry without letting a
#: num_sets sweep accumulate every layout it ever built.
_COLUMNAR_MEMO_LIMIT = 32
#: Widest lockstep pass of :meth:`FitnessEvaluator.evaluate_many`, in lanes
#: x columns: wider passes gain little and widen every step's temporaries,
#: so stacking workloads stops at 120 lanes over one 64-set trace.
_PASS_LANE_COLUMNS = 120 * 64


def clear_workload_memo() -> None:
    """Drop every shared trace/baseline memo (tests, memory pressure)."""
    _WORKLOAD_MEMO.clear()
    _POSITIONS_MEMO.clear()
    _BASELINE_MEMO.clear()
    _COLUMNAR_MEMO.clear()


def _shared_columnar_trace(key: tuple, addresses, num_sets: int):
    """Bounded LRU memo of :class:`~repro.engine.columnar.ColumnarTrace`.

    ``addresses`` is one stream or a pass's streams, binned side by side.
    Keyed by their trace *derivations* (benchmark and simpoint each, then
    length, capacity, seed) plus ``num_sets`` — never by address-list
    identity, so evaluators rebuilt across GA generations (or sweep
    points) reuse layouts instead of growing one dict per instance
    without limit.  Layouts collapse runs, as serving's do: a run of
    repeats is one exact O(1) orbit step, so a hot set's column takes far
    fewer lockstep steps.
    """
    trace = _COLUMNAR_MEMO.get(key)
    if trace is None:
        trace = ColumnarTrace(addresses, num_sets, collapse_runs=True)
        _COLUMNAR_MEMO[key] = trace
        while len(_COLUMNAR_MEMO) > _COLUMNAR_MEMO_LIMIT:
            _COLUMNAR_MEMO.popitem(last=False)
    else:
        _COLUMNAR_MEMO.move_to_end(key)
    return trace


def _memo_get(memo: OrderedDict, key, limit: int, build):
    value = memo.get(key)
    if value is None:
        value = build()
        memo[key] = value
        while len(memo) > limit:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return value


def _shared_workloads(
    name: str, trace_length: int, capacity: int, seed: int
) -> List[Tuple[List[int], int]]:
    """Per-simpoint ``(address list, instruction count)`` for a benchmark,
    shared by every evaluator with the same trace derivation."""

    def build():
        benchmark = SPEC_BENCHMARKS[name]
        traces = benchmark.traces(trace_length, capacity, seed=seed)
        return [(t.address_list(), t.instructions) for t in traces]

    key = (name, trace_length, capacity, seed)
    return _memo_get(_WORKLOAD_MEMO, key, _WORKLOAD_MEMO_LIMIT, build)


def _shared_positions(
    name: str,
    trace_length: int,
    capacity: int,
    seed: int,
    pos_seed: int,
    burstiness: float,
) -> List[List[int]]:
    """Per-simpoint MLP instruction positions, shared like the traces."""

    def build():
        from ..trace.record import assign_instruction_positions

        benchmark = SPEC_BENCHMARKS[name]
        traces = benchmark.traces(trace_length, capacity, seed=seed)
        return [
            assign_instruction_positions(
                t, seed=pos_seed, burstiness=burstiness
            ).position_list()
            for t in traces
        ]

    key = (name, trace_length, capacity, seed, pos_seed, burstiness)
    return _memo_get(_POSITIONS_MEMO, key, _WORKLOAD_MEMO_LIMIT, build)


def _shared_baseline(
    name: str,
    simpoint: int,
    trace_length: int,
    capacity: int,
    seed: int,
    num_sets: int,
    assoc: int,
    warmup: int,
    collect_indices: bool,
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Baseline (true-LRU vector) misses for one simpoint, memoized.

    Returns ``(misses, miss_indices or None)``; cycles are derived by the
    caller from its own timing model, so one memo entry serves evaluators
    with different CPI parameters.
    """

    def build():
        addresses = _shared_workloads(name, trace_length, capacity, seed)[
            simpoint
        ][0]
        baseline = tuple(lru_ipv(assoc).entries)
        if collect_indices:
            indices: List[int] = []
            misses = simulate_misses_lru_ipv(
                addresses, num_sets, assoc, baseline, warmup,
                miss_indices=indices,
            )
            return misses, tuple(indices)
        misses = simulate_misses_lru_ipv(
            addresses, num_sets, assoc, baseline, warmup
        )
        return misses, None

    key = (
        name, simpoint, trace_length, capacity, seed, num_sets, assoc,
        warmup, collect_indices,
    )
    return _memo_get(_BASELINE_MEMO, key, _BASELINE_MEMO_LIMIT, build)


class FitnessEvaluator:
    """Arithmetic-mean linear-CPI speedup over LRU across workloads.

    Parameters
    ----------
    benchmarks:
        Benchmark names to include (the GA's training set; for WN1
        cross-validation the held-out benchmark is simply omitted).
    config:
        Geometry and trace sizing; the GA typically uses a shorter
        ``trace_length`` than the evaluation runs.
    substrate:
        ``"plru"`` evolves GIPPR vectors, ``"lru"`` evolves GIPLR vectors.
    mlp_aware:
        When True, fitness uses :class:`~repro.timing.MLPAwareCPIModel`
        over per-miss instruction positions instead of the paper's linear
        model — the paper's future-work item 2 ("take MLP into account in
        the fitness function").  Accesses get bursty instruction positions
        (see :func:`repro.trace.assign_instruction_positions`) so miss
        clustering actually matters.
    kernel:
        Kernel selection for the PLRU substrate: ``"auto"`` (transition
        tables when available; :meth:`evaluate_many` batches of at least
        :data:`~repro.engine.columnar.DEFAULT_AUTO_MIN_LANES` IPVs go
        columnar), ``"lut"`` (demand tables), ``"walk"`` (force the
        bit-walk reference) or ``"columnar"`` (the numpy batch engine;
        :meth:`evaluate_many` then shares one columnar trace pass across
        the whole population).  All choices are bit-identical.
    """

    def __init__(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        config: Optional[ExperimentConfig] = None,
        substrate: str = "plru",
        mlp_aware: bool = False,
        burstiness: float = 0.5,
        kernel: str = "auto",
    ):
        if substrate not in ("plru", "lru"):
            raise ValueError("substrate must be 'plru' or 'lru'")
        if kernel not in ("auto", "lut", "walk", "columnar"):
            raise ValueError(
                f"kernel must be 'auto', 'lut', 'walk' or 'columnar', "
                f"got {kernel!r}"
            )
        self.substrate = substrate
        self.kernel = kernel
        self.config = config or default_config(trace_length=30_000)
        self.benchmark_names = list(benchmarks or benchmark_names())
        self.timing: LinearCPIModel = self.config.timing
        self.mlp_aware = mlp_aware
        self.burstiness = burstiness
        if mlp_aware:
            from ..timing import MLPAwareCPIModel

            self.mlp_model = MLPAwareCPIModel(
                base_cpi=self.timing.base_cpi,
                miss_penalty=self.timing.miss_penalty,
            )
        else:
            self.mlp_model = None
        # Workload tuples: (name, weight, addresses, instructions, positions)
        self._workloads: List[
            Tuple[str, float, List[int], int, Optional[List[int]]]
        ] = []
        # Parallel (name, simpoint) keys: the workload's derivation
        # identity, used to address the shared ColumnarTrace memo.
        self._workload_keys: List[Tuple[str, int]] = []
        cfg = self.config
        for name in self.benchmark_names:
            benchmark = SPEC_BENCHMARKS[name]
            shared = _shared_workloads(
                name, cfg.trace_length, cfg.capacity_blocks, cfg.seed
            )
            positions_by_sp: Optional[List[List[int]]] = None
            if mlp_aware:
                positions_by_sp = _shared_positions(
                    name, cfg.trace_length, cfg.capacity_blocks, cfg.seed,
                    cfg.seed ^ 0xB00, burstiness,
                )
            for simpoint, ((addresses, trace_instructions), weight) in enumerate(
                zip(shared, benchmark.weights())
            ):
                measured_instructions = max(
                    1, int(trace_instructions * (1.0 - cfg.warmup_fraction))
                )
                positions = (
                    positions_by_sp[simpoint] if positions_by_sp else None
                )
                self._workloads.append(
                    (name, weight, addresses, measured_instructions, positions)
                )
                self._workload_keys.append((name, simpoint))
        # Baseline: true LRU (the paper computes speedup over LRU), via the
        # cross-evaluator memo so repeated instantiations (GA workers, WN1
        # folds over overlapping training sets) never re-simulate it.
        self._lru_cycles: Dict[str, float] = {}
        index = 0
        for name in self.benchmark_names:
            benchmark = SPEC_BENCHMARKS[name]
            for simpoint, weight in enumerate(benchmark.weights()):
                _, _, addresses, instructions, positions = self._workloads[index]
                index += 1
                misses, miss_idx = _shared_baseline(
                    name, simpoint, cfg.trace_length, cfg.capacity_blocks,
                    cfg.seed, cfg.num_sets, cfg.assoc, cfg.warmup_accesses,
                    collect_indices=self.mlp_model is not None,
                )
                if self.mlp_model is None:
                    cycles = self.timing.cycles(instructions, misses)
                else:
                    miss_positions = [positions[i] for i in miss_idx]
                    cycles = self.mlp_model.cycles(instructions, miss_positions)
                self._lru_cycles[name] = (
                    self._lru_cycles.get(name, 0.0) + weight * cycles
                )

    def _simulate(self, addresses, num_sets, assoc, entries, warmup,
                  miss_indices=None):
        if self.substrate == "plru":
            return simulate_misses_plru_ipv(
                addresses, num_sets, assoc, entries, warmup,
                miss_indices=miss_indices, kernel=self.kernel,
            )
        return simulate_misses_lru_ipv(
            addresses, num_sets, assoc, entries, warmup,
            miss_indices=miss_indices,
        )

    def _cycles_for(
        self,
        entries: Tuple[int, ...],
        addresses: List[int],
        instructions: int,
        positions: Optional[List[int]],
    ) -> float:
        """Cycles under the active timing model for one workload."""
        cfg = self.config
        if self.mlp_model is None:
            misses = self._simulate(
                addresses, cfg.num_sets, cfg.assoc, entries, cfg.warmup_accesses
            )
            return self.timing.cycles(instructions, misses)
        miss_indices: List[int] = []
        self._simulate(
            addresses, cfg.num_sets, cfg.assoc, entries, cfg.warmup_accesses,
            miss_indices=miss_indices,
        )
        miss_positions = [positions[i] for i in miss_indices]
        return self.mlp_model.cycles(instructions, miss_positions)

    @property
    def k(self) -> int:
        return self.config.assoc

    # ------------------------------------------------------------------
    # Spawn-safe reconstruction (repro.ga.parallel): the spec is a small
    # picklable dict; workers rebuild the evaluator and regenerate traces
    # from it (hitting the module memos), mirroring how the PR-1 runner
    # regenerates simpoint traces instead of pickling them.
    # ------------------------------------------------------------------
    def spec(self) -> dict:
        """Picklable recipe from which :meth:`from_spec` rebuilds ``self``."""
        cfg = self.config
        return {
            "benchmarks": list(self.benchmark_names),
            "config": {
                "num_sets": cfg.num_sets,
                "assoc": cfg.assoc,
                "trace_length": cfg.trace_length,
                "warmup_fraction": cfg.warmup_fraction,
                "seed": cfg.seed,
            },
            "timing": {
                "base_cpi": self.timing.base_cpi,
                "miss_penalty": self.timing.miss_penalty,
            },
            "substrate": self.substrate,
            "mlp_aware": self.mlp_aware,
            "burstiness": self.burstiness,
            "kernel": self.kernel,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FitnessEvaluator":
        """Rebuild an equivalent evaluator from :meth:`spec` output."""
        config = ExperimentConfig(
            apply_env_scale=False,
            timing=LinearCPIModel(**spec["timing"]),
            **spec["config"],
        )
        return cls(
            benchmarks=spec["benchmarks"],
            config=config,
            substrate=spec["substrate"],
            mlp_aware=spec["mlp_aware"],
            burstiness=spec["burstiness"],
            kernel=spec["kernel"],
        )

    def evaluate(self, ipv) -> float:
        """Fitness of an IPV (IPV object or raw entry sequence)."""
        entries = tuple(ipv.entries if isinstance(ipv, IPV) else ipv)
        if len(entries) != self.config.assoc + 1:
            raise ValueError(
                f"IPV must have {self.config.assoc + 1} entries, got {len(entries)}"
            )
        cycles: Dict[str, float] = {}
        for name, weight, addresses, instructions, positions in self._workloads:
            value = self._cycles_for(entries, addresses, instructions, positions)
            cycles[name] = cycles.get(name, 0.0) + weight * value
        speedups = [
            self._lru_cycles[name] / cycles[name] for name in cycles
        ]
        return sum(speedups) / len(speedups)

    # ------------------------------------------------------------------
    # Batched evaluation: the columnar engine's raison d'être.  One trace
    # pass serves every IPV lane, so a GA generation amortizes trace
    # decoding across the whole population.
    # ------------------------------------------------------------------
    def _columnar_batchable(self, lanes: int) -> bool:
        """Can (and should) a batch of ``lanes`` IPVs go columnar?

        ``kernel="columnar"`` always says yes (the engine raises its own
        clear error for an unsupported geometry).  ``"auto"`` opts in only
        when the engine supports the associativity and the batch is big
        enough to amortize the numpy setup; MLP-aware fitness stays scalar
        (it needs per-miss indices fed through the position model, a
        per-lane post-pass not worth the gather today).
        """
        if self.substrate != "plru" or self.mlp_model is not None:
            return False
        if self.kernel == "columnar":
            return True
        if self.kernel != "auto" or lanes < DEFAULT_AUTO_MIN_LANES:
            return False
        return columnar_supported(self.config.assoc)

    def _columnar_trace(self, indices: range):
        """The segmented layout of workloads ``indices``, via the memo.

        The layout is a pure function of the trace derivations and
        geometry, so one build serves every generation's population —
        and, through the module-level LRU, every *evaluator* with the
        same derivations (GA workers, sweep points).
        """
        cfg = self.config
        key = (tuple(self._workload_keys[i] for i in indices),
               cfg.trace_length, cfg.capacity_blocks, cfg.seed, cfg.num_sets)
        streams = [self._workloads[i][2] for i in indices]
        return _shared_columnar_trace(key, streams, cfg.num_sets)

    def evaluate_many(self, ipvs: Sequence) -> List[float]:
        """Fitness of many IPVs, batched through the columnar engine.

        Bit-identical to ``[self.evaluate(ipv) for ipv in ipvs]`` — the
        per-lane miss counts match the scalar kernels exactly and the
        cycle accumulation runs in the same workload order with the same
        float operations — but one :class:`BatchSimulator` serves the
        whole batch, in passes over segmented traces that each stack as
        many workloads as keep lanes x columns within
        :data:`_PASS_LANE_COLUMNS` (every workload in one pass at a GA
        generation's 24 lanes).  Falls back to that scalar loop whenever
        the batch cannot go columnar (see :meth:`_columnar_batchable`).
        """
        batch = [
            tuple(ipv.entries if isinstance(ipv, IPV) else ipv)
            for ipv in ipvs
        ]
        if not batch:
            return []
        for entries in batch:
            if len(entries) != self.config.assoc + 1:
                raise ValueError(
                    f"IPV must have {self.config.assoc + 1} entries, "
                    f"got {len(entries)}"
                )
            _validate_ipv_entries(entries, self.config.assoc)
        if not self._columnar_batchable(len(batch)):
            return [self.evaluate(entries) for entries in batch]
        cfg = self.config
        simulator = BatchSimulator(
            cfg.num_sets, cfg.assoc, batch, cfg.warmup_accesses
        )
        per_pass = max(1, _PASS_LANE_COLUMNS // (len(batch) * cfg.num_sets))
        workloads = range(len(self._workloads))
        by_workload = []
        for first in workloads[::per_pass]:
            trace = self._columnar_trace(workloads[first:first + per_pass])
            record_kernel_call("columnar")
            by_workload.extend(simulator.run(trace).T.tolist())
        cycles: List[Dict[str, float]] = [{} for _ in batch]
        for (name, weight, _, instructions, _), misses in zip(
            self._workloads, by_workload
        ):
            for lane, lane_cycles in enumerate(cycles):
                value = self.timing.cycles(instructions, misses[lane])
                lane_cycles[name] = lane_cycles.get(name, 0.0) + weight * value
        results: List[float] = []
        for lane_cycles in cycles:
            speedups = [
                self._lru_cycles[name] / lane_cycles[name]
                for name in lane_cycles
            ]
            results.append(sum(speedups) / len(speedups))
        return results

    def per_benchmark_speedup(self, ipv) -> Dict[str, float]:
        """Per-benchmark speedups (diagnostics and WN1 reporting)."""
        entries = tuple(ipv.entries if isinstance(ipv, IPV) else ipv)
        cycles: Dict[str, float] = {}
        for name, weight, addresses, instructions, positions in self._workloads:
            value = self._cycles_for(entries, addresses, instructions, positions)
            cycles[name] = cycles.get(name, 0.0) + weight * value
        return {name: self._lru_cycles[name] / cycles[name] for name in cycles}
