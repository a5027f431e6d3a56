#!/usr/bin/env python3
"""Fast serving smoke check (the ``make smoke-serving`` target).

Asserts, in a few seconds, that the streaming serving scenario is sound
end to end:

1. sharding is layout, not semantics: the same churning flash-crowd
   stream produces bit-identical miss counts across shards in {1, 2, 4}
   and across the columnar engine vs the forced scalar fallback, all
   equal to a single-cache scalar reference fed one access at a time;
2. the report schema holds: ``run_serving`` with ``report_path`` writes
   a JSON report carrying the documented fields plus a provenance
   manifest sidecar with the spec digest and the derived seed, and the
   status file publishes progress;
3. determinism: two streams from one spec are identical, and
   ``seed=None`` derives the same seed in-process both times;
4. backpressure is bounded and visible: a tiny ingest queue sheds load
   into ``shed_accesses`` instead of growing without bound;
5. overhead: attaching telemetry costs <= 5 % on the serving drain loop
   (the median of 20 paired process_time ratios, with the side that runs
   first alternating per round), and leaves miss counts unchanged.

Exits non-zero on any failure.
"""

import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine.scalar import ScalarStreamSimulator  # noqa: E402
from repro.core.ipv import lru_ipv  # noqa: E402
from repro.serve.frontend import ShardedFrontend  # noqa: E402
from repro.serve.service import run_serving  # noqa: E402
from repro.serve.telemetry import ServeTelemetry  # noqa: E402
from repro.serve.workload import (  # noqa: E402
    ServingSpec,
    ServingStream,
    auto_flash_phases,
)

NUM_SETS = 256
ASSOC = 8
ACCESSES = 200_000
CHUNK = 1 << 14
ENTRIES = tuple(lru_ipv(ASSOC).entries)

REPORT_FIELDS = (
    "schema", "spec", "spec_digest", "seed", "seed_derived", "policy",
    "ipv", "num_sets", "assoc", "shards", "engine",
    "accesses", "misses", "miss_rate", "wall_sec",
    "throughput_accesses_per_sec", "shed_accesses", "shed_ratio",
    "retired_keys", "shards_detail", "totals", "telemetry",
)


def smoke_spec(accesses=ACCESSES):
    return ServingSpec(
        keys=1 << 12,
        alpha=1.1,
        tenants=2,
        accesses=accesses,
        churn_per_million=25_000,
        phases=auto_flash_phases(accesses, 1, share=0.5, hot_keys=32),
        seed=None,  # exercise spec-digest seed derivation
    )


def stream_addresses(spec):
    out = []
    for chunk in ServingStream(spec).chunks(CHUNK):
        out.extend(int(a) for a in chunk)
    return out


def check_bit_identity():
    spec = smoke_spec()
    prefix = stream_addresses(spec)
    assert len(prefix) == spec.accesses

    reference = ScalarStreamSimulator(NUM_SETS, ASSOC, ENTRIES, warmup=0)
    want = reference.feed(prefix)

    results = {}
    for shards in (1, 2, 4):
        for engine in ("columnar", "scalar"):
            frontend = ShardedFrontend(
                NUM_SETS, ASSOC, ENTRIES, shards=shards, engine=engine
            )
            for lo in range(0, len(prefix), CHUNK):
                frontend.process(prefix[lo:lo + CHUNK])
            assert frontend.accesses == spec.accesses
            results[(shards, engine)] = frontend.misses
    assert set(results.values()) == {want}, (
        f"shard/engine divergence: reference={want}, got {results}"
    )
    print(f"  bit-identity   {want} misses across shards x engines "
          f"== scalar reference ({len(prefix):,} accesses)")
    return want


def check_report_schema():
    spec = smoke_spec(accesses=60_000)
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "serving.json")
        status_path = os.path.join(tmp, "status.json")
        report = run_serving(
            spec, NUM_SETS, ASSOC, policy="lru", shards=2,
            chunk_accesses=CHUNK, status_path=status_path,
            report_path=report_path,
        )
        with open(report_path) as handle:
            payload = json.load(handle)
        missing = [f for f in REPORT_FIELDS if f not in payload]
        assert not missing, f"report missing fields: {missing}"
        assert payload["schema"] == "repro-serving-report/5"
        assert payload["accesses"] == spec.accesses
        assert payload["misses"] == report.misses
        assert payload["seed_derived"] is True
        assert payload["seed"] == spec.resolved_seed()
        assert len(payload["shards_detail"]) == 2

        manifest_path = os.path.join(tmp, "serving.manifest.json")
        assert os.path.exists(manifest_path), "manifest sidecar missing"
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest.get("serving_seed") == spec.resolved_seed()
        assert manifest.get("serving_seed_derived") is True
        assert manifest.get("seed") == spec.resolved_seed()

        with open(status_path) as handle:
            status = json.load(handle)
        assert status.get("accesses_done") == spec.accesses
    print(f"  report schema  {len(REPORT_FIELDS)} fields + manifest "
          f"sidecar + status file OK ({report.misses} misses)")


def check_determinism():
    spec = smoke_spec(accesses=50_000)
    assert spec.resolved_seed() == smoke_spec(50_000).resolved_seed()
    a = stream_addresses(spec)
    b = stream_addresses(smoke_spec(accesses=50_000))
    assert a == b, "seed=None stream is not deterministic"
    other = ServingSpec(
        keys=1 << 12, alpha=1.3, accesses=50_000, seed=None
    )
    assert spec.resolved_seed() != other.resolved_seed()
    print(f"  determinism    derived seed {spec.resolved_seed()} stable; "
          f"distinct spec -> distinct seed")


def check_backpressure():
    frontend = ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=2, max_queue_batches=2
    )
    batch = list(range(NUM_SETS * 4))
    shed_before = frontend.shed_accesses
    for _ in range(8):
        frontend.ingest(batch)
    assert frontend.queued_batches <= 2 * frontend.shards
    assert frontend.shed_accesses > shed_before, (
        "overflowing a bounded queue must shed load"
    )
    shed = frontend.shed_accesses
    frontend.drain()
    assert frontend.queued_batches == 0
    print(f"  backpressure   queue stayed bounded, shed {shed} accesses")


def check_overhead():
    # Telemetry attached vs telemetry=None on the same chunk sequence, one
    # pair per round.  The side that runs first alternates, so the second
    # slot's head start cancels out, and the gate takes the median paired
    # ratio, which half the rounds must meet: a lucky round or two cannot.
    # (The ratio of each side's fastest round swung from 0.89 to 1.36 on
    # identical work on a 2-vCPU guest; this median stayed within 2 %.)
    spec = ServingSpec(keys=1 << 12, alpha=1.2, accesses=200_000, seed=23)
    chunks = list(ServingStream(spec).chunks(1 << 14))
    rounds = 20
    ratios = []
    misses = set()

    def timed(side):
        telemetry = ServeTelemetry(2) if side == "wired" else None
        frontend = ShardedFrontend(NUM_SETS, ASSOC, ENTRIES, shards=2,
                                   telemetry=telemetry)
        t0 = time.process_time()
        misses.add(sum(frontend.process(c) for c in chunks))
        return time.process_time() - t0

    for r in range(rounds):
        order = ("plain", "wired") if r % 2 == 0 else ("wired", "plain")
        sec = {side: timed(side) for side in order}
        ratios.append(sec["wired"] / max(sec["plain"], 1e-9))
    assert len(misses) == 1, f"telemetry changed miss counts: {misses}"
    ratio = statistics.median(ratios)
    assert ratio <= 1.05, (
        f"telemetry overhead {ratio:.3f}x exceeds the 1.05x budget"
    )
    print(f"  overhead       {ratio:.3f}x with telemetry attached (median "
          f"of {rounds} alternating pairs, budget 1.05x), misses "
          f"bit-identical")


def main():
    t0 = time.perf_counter()
    check_bit_identity()
    check_report_schema()
    check_determinism()
    check_backpressure()
    check_overhead()
    print(f"serving smoke OK in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
