#!/usr/bin/env python3
"""Observability smoke check (the ``make smoke-obs`` target).

Exercises the whole ``repro.obs`` stack end to end and asserts:

1. a tiny traced simulation writes a JSONL event stream in which **every**
   line validates against :data:`repro.obs.events.EVENT_SCHEMA`;
2. replaying that stream (:func:`repro.obs.tracer.replay_counts`)
   reproduces the untraced run's hit/miss/eviction/bypass counts exactly
   — tracing observes the simulation without perturbing it;
3. the tracer's metrics registry exports valid Prometheus text
   (round-trips through :func:`repro.obs.metrics.parse_prometheus`) and
   the exported totals agree with the replayed counts;
4. a provenance manifest is written next to the JSONL with the required
   schema fields;
5. the **disabled-tracing overhead budget** holds: with no tracer
   attached, the hot path is within 5 % of a reference derived from it
   with the tracer dispatch removed (min-of-N interleaved timing over
   many short runs);
6. the **disabled span profiler is free**: with no recorder installed,
   ``span(...)`` returns the shared no-op singleton (identity, no
   allocation) and a call costs well under 5 µs;
7. the **status publisher throttles**: a tight update loop produces only
   a handful of writes, so a fast job loop cannot turn the status file
   into an I/O hot spot.

Exits non-zero on any failure.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.eval.config import ExperimentConfig  # noqa: E402
from repro.eval.runner import run_trace  # noqa: E402
from repro.obs import (  # noqa: E402
    JSONLSink,
    Tracer,
    build_manifest,
    disabled_overhead_ratio,
    manifest_path_for,
    parse_prometheus,
    read_jsonl,
    replay_counts,
    write_manifest,
)
from repro.policies import make_policy  # noqa: E402
from repro.workloads import get_benchmark  # noqa: E402

OVERHEAD_BUDGET = 1.05

BENCHMARK = "462.libquantum"
POLICY = "dgippr"
LENGTH = 6_000


def traced_and_untraced(workdir):
    """Run the same trace twice (traced + untraced); return paths/stats."""
    config = ExperimentConfig(
        num_sets=16, assoc=16, trace_length=LENGTH, seed=0,
        apply_env_scale=False,
    )
    benchmark = get_benchmark(BENCHMARK)
    trace = benchmark.trace(
        0, config.trace_length, config.capacity_blocks, seed=config.seed
    )
    jsonl_path = os.path.join(workdir, "events.jsonl")

    registry = None
    with Tracer(sink=JSONLSink(jsonl_path), psel_every=100) as tracer:
        run_trace(
            make_policy(POLICY, config.num_sets, config.assoc),
            trace, config, tracer=tracer,
        )
        registry = tracer.registry

    untraced = {}
    run_trace(
        make_policy(POLICY, config.num_sets, config.assoc),
        trace, config, stats_sink=untraced,
    )

    manifest = build_manifest(config=config, policy=POLICY, seed=config.seed,
                              extra={"benchmark": BENCHMARK, "smoke": True})
    write_manifest(jsonl_path, manifest)
    return jsonl_path, registry, untraced


def main():
    with tempfile.TemporaryDirectory(prefix="repro-smoke-obs-") as workdir:
        jsonl_path, registry, untraced = traced_and_untraced(workdir)

        # 1. Schema: read_jsonl(validate=True) raises on any invalid line.
        events = list(read_jsonl(jsonl_path, validate=True))
        assert events, "traced run produced no events"
        print(f"schema OK               [{len(events)} events validate]")

        # 2. Replay fidelity: event counts == untraced CacheStats.
        counts = replay_counts(events)
        for key in ("accesses", "hits", "misses", "evictions", "bypasses"):
            assert counts[key] == untraced[key], (
                f"replay mismatch: {key} {counts[key]} != {untraced[key]}"
            )
        print(f"replay OK               [hits={counts['hits']} "
              f"misses={counts['misses']} evictions={counts['evictions']}]")

        # 3. Prometheus export parses and agrees with the replay.
        parsed = parse_prometheus(registry.to_prometheus())
        assert parsed, "Prometheus export parsed to nothing"
        hits = parsed.get(("repro_trace_events_total", (("kind", "hit"),)))
        misses = parsed.get(("repro_trace_events_total", (("kind", "miss"),)))
        assert hits == counts["hits"], f"prometheus hits {hits} != replay"
        assert misses == counts["misses"], (
            f"prometheus misses {misses} != replay"
        )
        assert ("repro_insertion_position_count", ()) in parsed or any(
            name == "repro_insertion_position_bucket"
            for name, _ in parsed
        ), "insertion-position histogram missing from export"
        print(f"prometheus OK           [{len(parsed)} samples parse]")

        # 4. Manifest sidecar with required provenance fields.
        import json

        with open(manifest_path_for(jsonl_path)) as handle:
            manifest = json.load(handle)
        for field in ("schema", "config_hash", "policy", "seed",
                      "code_version", "git_revision", "created_at"):
            assert field in manifest, f"manifest missing {field!r}"
        print(f"manifest OK             [schema={manifest['schema']}]")

    # 5. Overhead budget: disabled tracing within 5% of the reference.
    ratio = disabled_overhead_ratio(accesses=30_000, repeats=40)
    assert ratio <= OVERHEAD_BUDGET, (
        f"disabled-tracing overhead {ratio:.3f}x exceeds "
        f"{OVERHEAD_BUDGET:.2f}x budget"
    )
    print(f"overhead OK             [{ratio:.3f}x <= {OVERHEAD_BUDGET:.2f}x]")

    # 6. Disabled spans are free: no-op singleton identity + cheap calls.
    import time as _time

    from repro.obs.spans import current_recorder, span

    assert current_recorder() is None, "a recorder leaked into the smoke run"
    assert span("a") is span("b"), (
        "disabled span() must return the shared no-op singleton"
    )
    calls = 200_000
    started = _time.perf_counter()
    for _ in range(calls):
        with span("smoke.noop", x=1):
            pass
    per_call_us = (_time.perf_counter() - started) / calls * 1e6
    assert per_call_us < 5.0, (
        f"disabled span() costs {per_call_us:.2f}us/call (budget 5us)"
    )
    print(f"spans OK                [no-op identity, "
          f"{per_call_us:.2f}us/call disabled]")

    # 7. Status publisher throttling: tight loops produce few writes.
    from repro.obs.status import StatusPublisher

    with tempfile.TemporaryDirectory(prefix="repro-smoke-obs-") as workdir:
        publisher = StatusPublisher(
            os.path.join(workdir, "run-status.json"), kind="smoke",
            min_interval=0.2,
        )
        publisher.update(force=True, phase="tight-loop")
        for i in range(10_000):
            publisher.update(jobs_done=i)
        publisher.finalize(jobs_done=10_000)
        assert publisher.writes <= 5, (
            f"status publisher wrote {publisher.writes} times in a tight "
            "loop; throttling is broken"
        )
        print(f"status OK               [{publisher.writes} writes "
              f"for 10k updates]")
    print("smoke-obs: all checks passed")


if __name__ == "__main__":
    main()
