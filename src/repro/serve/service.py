"""Serving run driver: stream -> sharded front-end -> observability.

``run_serving`` wires one :class:`~repro.serve.workload.ServingSpec`
through a :class:`~repro.serve.frontend.ShardedFrontend`:

* phases are span-profiled (``serve.generate`` / ``serve.simulate``
  under one ``serve.run`` root) so a flamegraph says where the time
  went;
* :class:`~repro.obs.status.StatusPublisher` gets live
  throughput/progress/ETA (``repro obs watch`` renders it);
* a :class:`~repro.serve.telemetry.ServeTelemetry` (on by default)
  records per-shard batch latency and amortized per-access latency into
  log-linear histograms, published to the status file and the report;
* a provenance manifest (spec digest + resolved seed — derived seeds
  are *recorded*, per the workloads seeding contract) is written next
  to the report when a report path is given.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from ..core.ipv import lip_ipv, lru_ipv, mru_pessimistic_ipv
from ..core.plru import is_power_of_two
from ..obs.spans import span
from ..obs.status import StatusPublisher
from .frontend import ShardedFrontend
from .telemetry import ServeTelemetry
from .workload import ServingSpec, ServingStream

__all__ = [
    "ServingReport",
    "resolve_policy_entries",
    "run_serving",
]

SERVING_POLICIES = ("lru", "lip", "static", "gippr")


def resolve_policy_entries(
    policy: Union[str, Sequence[int]], assoc: int
) -> Tuple[str, Tuple[int, ...]]:
    """``(name, IPV entries)`` for a named policy or an explicit vector."""
    if not isinstance(policy, str):
        entries = tuple(int(e) for e in policy)
        return f"ipv{len(entries) - 1}", entries
    name = policy.lower()
    if name == "lru":
        return name, tuple(lru_ipv(assoc).entries)
    if name == "lip":
        return name, tuple(lip_ipv(assoc).entries)
    if name == "static":
        return name, tuple(mru_pessimistic_ipv(assoc).entries)
    if name == "gippr":
        from ..core.vectors import GIPPR_WI_VECTOR

        if assoc != GIPPR_WI_VECTOR.k:
            raise ValueError(
                f"gippr is a {GIPPR_WI_VECTOR.k}-way vector; "
                f"geometry has assoc={assoc}"
            )
        return name, tuple(GIPPR_WI_VECTOR.entries)
    raise ValueError(
        f"unknown serving policy {policy!r}; "
        f"known: {', '.join(SERVING_POLICIES)}"
    )


class ServingReport:
    """Everything a serving run produced, JSON-ready via :meth:`to_dict`."""

    def __init__(self, spec, policy, entries, num_sets, assoc, shards,
                 engine, accesses, misses, wall_sec, shed,
                 retired, shard_snapshots, totals_snapshot,
                 telemetry=None):
        self.spec = spec
        self.policy = policy
        self.entries = entries
        self.num_sets = num_sets
        self.assoc = assoc
        self.shards = shards
        self.engine = engine
        self.accesses = accesses
        self.misses = misses
        self.wall_sec = wall_sec
        self.shed = shed
        self.retired = retired
        self.shard_snapshots = shard_snapshots
        self.totals_snapshot = totals_snapshot
        self.telemetry = telemetry        # report_section() dict or None

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def shed_ratio(self) -> float:
        """Fraction of *offered* load that was shed by backpressure."""
        offered = self.accesses + self.shed
        return self.shed / offered if offered else 0.0

    @property
    def throughput(self) -> float:
        """Sustained accesses/sec over the whole run."""
        return self.accesses / self.wall_sec if self.wall_sec > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            # /2 adds shed_ratio + the telemetry and slo blocks; /3
            # drops the stream backend; /4 drops the slo block and the
            # telemetry block's windows and drift events; /5 writes
            # latency_histogram as Histogram.as_json() (no schema tag).
            "schema": "repro-serving-report/5",
            "spec": self.spec.digest_payload(),
            "spec_digest": self.spec.digest(),
            "seed": self.spec.resolved_seed(),
            "seed_derived": self.spec.seed is None,
            "policy": self.policy,
            "ipv": list(self.entries),
            "num_sets": self.num_sets,
            "assoc": self.assoc,
            "shards": self.shards,
            "engine": self.engine,
            "accesses": self.accesses,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "wall_sec": self.wall_sec,
            "throughput_accesses_per_sec": self.throughput,
            "shed_accesses": self.shed,
            "shed_ratio": self.shed_ratio,
            "retired_keys": self.retired,
            "shards_detail": self.shard_snapshots,
            "totals": self.totals_snapshot,
            "telemetry": self.telemetry,
        }


def run_serving(
    spec: ServingSpec,
    num_sets: int,
    assoc: int,
    policy: Union[str, Sequence[int]] = "lru",
    shards: int = 1,
    engine: str = "auto",
    chunk_accesses: int = 1 << 16,
    status_path: Optional[Union[str, Path]] = None,
    report_path: Optional[Union[str, Path]] = None,
    telemetry: bool = True,
) -> ServingReport:
    """Drive ``spec``'s stream through a sharded front-end; report.

    ``report_path``, when given, receives the JSON report *and* a
    provenance manifest sidecar carrying the spec digest and the
    resolved (possibly derived) seed.

    ``telemetry=True`` (the default) attaches a
    :class:`~repro.serve.telemetry.ServeTelemetry`: per-shard HDR batch
    latency and amortized per-access latency, surfaced through the
    status file's ``serving`` section and the final report.

    A run that raises finalizes its status file as ``phase: "failed"``
    with the error before the exception propagates.
    """
    if not is_power_of_two(num_sets) or not is_power_of_two(assoc):
        raise ValueError(
            f"geometry must be powers of two, got {num_sets}x{assoc}"
        )
    name, entries = resolve_policy_entries(policy, assoc)
    telem = ServeTelemetry(shards) if telemetry else None
    frontend = ShardedFrontend(
        num_sets, assoc, entries, shards=shards, engine=engine,
        telemetry=telem,
    )
    stream = ServingStream(spec)
    publisher = (
        StatusPublisher(status_path, "serve") if status_path else None
    )
    total = spec.accesses
    done = 0
    misses = 0
    start = time.monotonic()
    try:
        with span("serve.run", accesses=total, shards=shards,
                  policy=name, engine=frontend.engine):
            if publisher:
                publisher.update(
                    force=True, phase="serving", accesses_total=total,
                    accesses_done=0, policy=name, shards=shards,
                    engine=frontend.engine,
                )
            chunks = stream.chunks(chunk_accesses)
            while True:
                with span("serve.generate"):
                    chunk = next(chunks, None)
                if chunk is None:
                    break
                with span("serve.simulate", accesses=len(chunk)):
                    misses += frontend.process(chunk)
                done += len(chunk)
                elapsed = time.monotonic() - start
                rate = done / elapsed if elapsed > 0 else 0.0
                if publisher:
                    fields = dict(
                        phase="serving",
                        accesses_done=done,
                        accesses_total=total,
                        throughput=rate,
                        miss_rate=misses / done if done else 0.0,
                        eta_sec=(total - done) / rate if rate else None,
                    )
                    if telem is not None:
                        fields["serving"] = telem.snapshot()
                    publisher.update(**fields)
        wall = time.monotonic() - start
        totals = frontend.totals()
        report = ServingReport(
            spec, name, entries, num_sets, assoc, shards, frontend.engine,
            done, misses, wall, frontend.shed_accesses,
            stream.retired,
            [r.snapshot() for r in frontend.shard_results()],
            totals.snapshot(),
            telemetry=telem.report_section() if telem is not None else None,
        )
        rate = report.throughput
        if publisher:
            fields = dict(
                phase="done", accesses_done=done, accesses_total=total,
                throughput=rate, miss_rate=report.miss_rate, wall_sec=wall,
            )
            if telem is not None:
                fields["serving"] = telem.snapshot()
            publisher.finalize(**fields)
    except BaseException as exc:
        if publisher:
            publisher.fail(exc)
        raise
    if report_path is not None:
        import json

        from ..obs.provenance import build_manifest, write_manifest

        report_path = Path(report_path)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        with open(report_path, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        extra = spec.manifest_extra()
        extra["serving_run"] = {
            "policy": name,
            "num_sets": num_sets,
            "assoc": assoc,
            "shards": shards,
            "engine": frontend.engine,
            "throughput_accesses_per_sec": rate,
        }
        write_manifest(
            report_path,
            build_manifest(
                policy=name,
                policy_kwargs={"ipv": list(entries)},
                seed=spec.resolved_seed(),
                wall_time_sec=wall,
                extra=extra,
            ),
        )
    return report
