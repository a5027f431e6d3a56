"""Per-layer self-time tracing for the benchmark's traced runs.

The tracer wraps public entry points of each ``repro`` layer at run time,
from the benchmark's own code; the program's source is not touched.  Every
wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it encloses.  The tracer also adds up, separately,
the durations of the outermost spans: the self times of all layers must
sum to that total, and the traced wall time minus it is the untraced
remainder (``trace.other_s``).

Spans are paid per call of a layer entry point: per serving batch, per
GA batch or compile, per simulated cell — never per access.
"""

from __future__ import annotations

import functools
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Layer names, as reported with a ``_s`` suffix (self seconds).
LAYERS = (
    "serve.workload.generate",
    "serve.frontend.bin",
    "serve.telemetry",
    "engine.transpose",
    "engine.feed",
    "engine.lane_tables",
    "engine.run",
    "kernels.compile",
    "ga.evaluator_setup",
    "ga.breed",
    "ga.evaluate",
    "workloads.trace_gen",
    "eval.run_trace.lru",
    "eval.run_trace.plru",
    "eval.run_trace.drrip",
    "eval.run_trace.pdp",
    "eval.run_trace.dgippr",
    "eval.matrix",
)

_END = object()


def layer_metric(layer: str) -> str:
    """Metric name of a layer's self time (``eval.run_trace.X`` ->
    ``eval.run_trace_s.X``, everything else gains an ``_s`` suffix)."""
    if layer.startswith("eval.run_trace."):
        return "eval.run_trace_s." + layer.rsplit(".", 1)[1]
    return layer + "_s"


class LayerTracer:
    """Self-time accumulator over wrapped layer entry points."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.outer_s = 0.0   # total duration of the outermost spans
        self.widest = None   # (lanes, args, kwargs) of the widest BatchSimulator
        self._open = []      # child seconds of each open span, innermost last
        self._patches = []

    @contextmanager
    def span(self, layer: str):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        self._open.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            total = perf_counter() - start
            child = self._open.pop()
            self.self_s[layer] += total - child
            self.calls[layer] += 1
            if self._open:
                self._open[-1] += total
            else:
                self.outer_s += total

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, layer, after=None):
        """Time every call of ``owner.attr`` as a span of ``layer``.

        ``layer`` may be a function of the call's arguments.  Inside the
        span, ``after(args, kwargs, result)`` records counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            with tracer.span(name):
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr, layer):
        """Time each ``next()`` of the generator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                with tracer.span(layer):
                    item = next(items, _END)
                if item is _END:
                    return
                yield item

        self._patch(owner, attr, wrapper)

    def restore(self):
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def install(self):
        """Wrap the entry points of every layer the workloads reach."""
        from repro.engine import columnar
        from repro.eval import experiments, parallel
        from repro.ga import fitness, genetic
        from repro.kernels import tables
        from repro.serve import frontend, telemetry, workload
        from repro.workloads import spec

        counts = self.counts

        self.wrap_generator(workload.ServingStream, "chunks",
                            "serve.workload.generate")
        self.wrap(frontend.ShardedFrontend, "process", "serve.frontend.bin")
        for method in ("record_batch", "record_shed", "publish", "snapshot",
                       "finalize", "report_section"):
            self.wrap(telemetry.ServeTelemetry, method, "serve.telemetry")

        def transposed(args, _kwargs, _):
            trace = args[0]
            counts["engine.accesses_in"] += trace.n
            counts["engine.entries_out"] += sum(
                chunk.addr_by_step.size for chunk in trace.chunks
            )

        self.wrap(columnar.ColumnarTrace, "__init__", "engine.transpose",
                  transposed)
        self.wrap(columnar.BatchSimulator, "feed", "engine.feed")

        def ran(args, _kwargs, _):
            sim, trace = args[0], args[1]
            counts["engine.lane_accesses"] += sim.lanes * (
                trace.n if isinstance(trace, columnar.ColumnarTrace)
                else len(trace)
            )

        self.wrap(columnar.BatchSimulator, "run", "engine.run", ran)

        def built(args, kwargs, _):
            lanes = args[0].lanes
            if self.widest is None or lanes > self.widest[0]:
                self.widest = (lanes, args[1:], kwargs)

        # Compile time is excluded: compile_tables is a span of its own.
        self.wrap(columnar.BatchSimulator, "__init__", "engine.lane_tables",
                  built)
        self.wrap(tables, "compile_tables", "kernels.compile")

        self.wrap(fitness.FitnessEvaluator, "__init__", "ga.evaluator_setup")

        def evaluated(args, _kwargs, _):
            counts["ga.lanes"] += len(args[1])

        self.wrap(fitness.FitnessEvaluator, "evaluate_many", "ga.evaluate",
                  evaluated)
        self.wrap(genetic, "crossover", "ga.breed")
        self.wrap(genetic, "mutate", "ga.breed")

        self.wrap(spec.SpecBenchmark, "trace", "workloads.trace_gen")
        # DGIPPR names itself after its vector count ("4-dgippr").
        self.wrap(
            parallel, "run_trace",
            lambda policy, *_a, **_k:
                "eval.run_trace." + policy.name.rsplit("-", 1)[-1],
        )
        self.wrap(experiments, "run_matrix", "eval.matrix")
        return self

    def lane_tables_bytes(self) -> int:
        """tracemalloc peak of building the widest ``BatchSimulator`` again.

        Called after the traced region, with the wraps removed, so nothing
        timed runs under tracemalloc.  A first, untraced build compiles the
        lanes' tables and holds them; the measured build reuses them, so
        compile work and its temporaries stay out of the peak.
        """
        if self.widest is None:
            return 0
        from repro.engine.columnar import BatchSimulator
        from repro.kernels import tables

        _, args, kwargs = self.widest
        compile_tables = tables.compile_tables
        held = {}

        def held_tables(k, entries=None):
            key = (k, None if entries is None else tuple(entries))
            if key not in held:
                held[key] = compile_tables(k, entries)
            return held[key]

        tables.compile_tables = held_tables
        try:
            BatchSimulator(*args, **kwargs)
            tracemalloc.start()
            try:
                BatchSimulator(*args, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            tables.compile_tables = compile_tables
