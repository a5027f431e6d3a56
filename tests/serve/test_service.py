"""Unit tests for ``run_serving``: report, obs wiring, provenance.

One small spec drives the full path — generator, sharded front-end,
status publisher, metrics gauges, JSON report and provenance manifest —
and every surface is checked against the direct front-end numbers.
"""

import json

import pytest

from repro.core.ipv import lip_ipv, lru_ipv
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import manifest_path_for
from repro.obs.slo import SLOSpec
from repro.obs.status import read_status
from repro.obs.tracer import Tracer, replay_counts
from repro.obs.sinks import ListSink
from repro.serve.frontend import ShardedFrontend
from repro.serve.service import resolve_policy_entries, run_serving
from repro.serve.workload import (
    ServingSpec,
    ServingStream,
    auto_flash_phases,
)
from repro.verify import PLRUPositionsOracle

NUM_SETS = 32
ASSOC = 4

SPEC = ServingSpec(
    keys=512, alpha=1.2, tenants=2, accesses=20_000,
    churn_per_million=50_000, seed=9,
)


def reference_misses(spec=SPEC, policy="lru"):
    _, entries = resolve_policy_entries(policy, ASSOC)
    fe = ShardedFrontend(NUM_SETS, ASSOC, entries, shards=1,
                         engine="scalar")
    misses = 0
    for chunk in ServingStream(spec).chunks(4096):
        misses += fe.process(chunk)
    return misses


class TestResolvePolicyEntries:
    def test_named_policies(self):
        assert resolve_policy_entries("lru", 4) == (
            "lru", tuple(lru_ipv(4).entries)
        )
        assert resolve_policy_entries("LIP", 4) == (
            "lip", tuple(lip_ipv(4).entries)
        )

    def test_explicit_vector(self):
        name, entries = resolve_policy_entries((0, 1, 2, 3, 0), 4)
        assert name == "ipv4"
        assert entries == (0, 1, 2, 3, 0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown serving policy"):
            resolve_policy_entries("belady", 4)

    def test_gippr_demands_its_assoc(self):
        with pytest.raises(ValueError, match="gippr"):
            resolve_policy_entries("gippr", 4)


class TestRunServing:
    def test_report_matches_reference(self):
        report = run_serving(SPEC, NUM_SETS, ASSOC, policy="lru",
                             shards=4)
        assert report.accesses == SPEC.accesses
        assert report.misses == reference_misses()
        assert report.shed == 0
        assert 0.0 < report.miss_rate < 1.0
        assert report.throughput > 0

    def test_report_dict_schema(self):
        report = run_serving(SPEC, NUM_SETS, ASSOC, shards=2)
        payload = report.to_dict()
        assert payload["schema"] == "repro-serving-report/3"
        assert "backend" not in payload
        assert payload["spec_digest"] == SPEC.digest()
        assert payload["seed"] == SPEC.resolved_seed()
        assert payload["seed_derived"] is False
        assert payload["shards"] == 2
        assert payload["accesses"] == SPEC.accesses
        assert payload["misses"] == report.misses
        assert len(payload["shards_detail"]) == 2
        assert payload["totals"]["accesses"] == SPEC.accesses
        assert payload["retired_keys"] > 0

    def test_gauges_land_in_registry(self):
        registry = MetricsRegistry("repro_serve")
        report = run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                             registry=registry)
        values = {
            name: instrument.as_json()
            for name, _, instrument in registry.instruments()
        }
        assert values["repro_serve_accesses"] == SPEC.accesses
        assert values["repro_serve_misses"] == report.misses
        assert values["repro_serve_shards"] == 2
        assert values["repro_serve_shed_accesses"] == 0
        assert values["repro_serve_retired_keys"] == report.retired
        assert values["repro_serve_throughput_accesses_per_sec"] > 0

    def test_status_file_published_and_finalized(self, tmp_path):
        status_path = tmp_path / "serve.status.json"
        run_serving(SPEC, NUM_SETS, ASSOC, status_path=status_path,
                    chunk_accesses=4096)
        status = read_status(status_path)
        assert status is not None
        assert status["phase"] == "done"
        assert status["accesses_done"] == SPEC.accesses
        assert status["accesses_total"] == SPEC.accesses
        assert status["throughput"] > 0

    def test_report_path_writes_json_and_manifest(self, tmp_path):
        report_path = tmp_path / "out" / "serving.json"
        report = run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                             report_path=report_path)
        on_disk = json.loads(report_path.read_text())
        assert on_disk["misses"] == report.misses
        manifest_path = manifest_path_for(report_path)
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["serving_spec_digest"] == SPEC.digest()
        assert manifest["serving_seed"] == SPEC.resolved_seed()
        assert manifest["serving_seed_derived"] is False
        assert manifest["serving_run"]["shards"] == 2
        assert manifest["seed"] == SPEC.resolved_seed()

    def test_derived_seed_recorded_in_manifest(self, tmp_path):
        spec = ServingSpec(keys=256, alpha=1.0, accesses=4096,
                           seed=None)
        report_path = tmp_path / "serving.json"
        run_serving(spec, NUM_SETS, ASSOC, report_path=report_path)
        manifest = json.loads(
            manifest_path_for(report_path).read_text()
        )
        assert manifest["serving_seed_derived"] is True
        assert manifest["serving_seed"] == spec.resolved_seed()
        assert manifest["seed"] == spec.resolved_seed()

    def test_geometry_validated(self):
        with pytest.raises(ValueError, match="powers of two"):
            run_serving(SPEC, 48, ASSOC)

    def test_engine_choice_does_not_change_misses(self):
        scalar = run_serving(SPEC, NUM_SETS, ASSOC, engine="scalar",
                             shards=1)
        auto = run_serving(SPEC, NUM_SETS, ASSOC, engine="auto",
                           shards=4)
        assert auto.misses == scalar.misses

    def test_wide_assoc_runs_scalar_walk_matching_oracle(self):
        # No tables above 16 ways, so k=32 is the one production input
        # that reaches the scalar bit-walk.
        spec = ServingSpec(
            keys=2048, alpha=1.1, tenants=2, accesses=4096,
            churn_per_million=50_000, phases=auto_flash_phases(4096, 1),
            seed=3,
        )
        report = run_serving(spec, 16, 32, policy="lip", telemetry=False,
                             chunk_accesses=509)
        assert report.engine == "scalar"
        oracle = PLRUPositionsOracle(16, 32, [lip_ipv(32)])
        assert report.misses == oracle.run(ServingStream(spec).addresses())
        assert report.misses == 1188

    def test_chunk_size_does_not_change_misses(self):
        a = run_serving(SPEC, NUM_SETS, ASSOC, chunk_accesses=1 << 12)
        b = run_serving(SPEC, NUM_SETS, ASSOC, chunk_accesses=7777)
        assert a.misses == b.misses

    def test_telemetry_does_not_change_misses(self):
        with_telem = run_serving(SPEC, NUM_SETS, ASSOC, shards=2)
        without = run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                              telemetry=False)
        assert with_telem.misses == without.misses
        assert without.telemetry is None
        assert without.slo_summary is None
        assert without.slo_ok is True


class TestServingTelemetry:
    def test_report_carries_telemetry_block(self):
        report = run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                             window_accesses=4096,
                             chunk_accesses=4096)
        telem = report.telemetry
        assert telem is not None
        # 4 full windows plus the flushed partial trailing one.
        assert telem["windows_closed"] == SPEC.accesses // 4096 + 1
        total_acc = sum(w["accesses"] for w in telem["windows"])
        total_hits = sum(w["hits"] for w in telem["windows"])
        assert total_acc == SPEC.accesses
        assert total_hits == SPEC.accesses - report.misses
        assert telem["latency"]["p99"] > 0
        assert telem["latency_histogram"]["schema"] == "repro-hdr/1"
        assert len(telem["shards"]) == 2
        assert sum(s["batches"] for s in telem["shards"]) > 0
        payload = report.to_dict()
        assert payload["telemetry"] is telem
        assert payload["shed_ratio"] == 0.0

    def test_slo_violation_surfaces_in_report_and_tracer(self):
        # An unreachable hit-rate target must violate once the short
        # burn horizon fills, flip slo_ok, and emit tracer events.
        sink = ListSink()
        tracer = Tracer(sink=sink)
        slo = SLOSpec(min_hit_rate=0.999, short_windows=2,
                      long_windows=4, budget=0.01)
        report = run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                             window_accesses=2048, chunk_accesses=4096,
                             slo=slo, tracer=tracer)
        assert report.slo_summary is not None
        assert report.slo_summary["ok"] is False
        assert report.slo_ok is False
        labels = {v["objective"] for v in report.slo_summary["violations"]}
        assert "hit_rate" in labels
        counts = replay_counts(sink.events)
        assert counts["slo_violations"] >= 1

    def test_spec_slo_used_and_excluded_from_digest(self):
        slo = SLOSpec(min_hit_rate=0.999, short_windows=2,
                      long_windows=4, budget=0.01)
        spec = ServingSpec(
            keys=512, alpha=1.2, tenants=2, accesses=20_000,
            churn_per_million=50_000, seed=9, slo=slo,
        )
        # The SLO is an operational overlay: same digest, same seed,
        # same stream as the SLO-free spec.
        assert spec.digest() == SPEC.digest()
        assert spec.resolved_seed() == SPEC.resolved_seed()
        report = run_serving(spec, NUM_SETS, ASSOC, shards=2,
                             window_accesses=2048)
        assert report.slo_summary is not None
        assert report.slo_ok is False
        assert report.misses == reference_misses()

    def test_telemetry_gauges_published(self):
        registry = MetricsRegistry("repro_serve")
        run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                    window_accesses=4096, registry=registry)
        values = {
            name: instrument.as_json()
            for name, _, instrument in registry.instruments()
        }
        assert values["repro_serve_windows_closed"] >= 1
        assert "repro_serve_window_hit_rate" in values
        assert values["repro_serve_shed_ratio_total"] == 0.0
        text = registry.to_prometheus()
        assert 'repro_serve_shard_latency_seconds{' in text

    def test_metrics_port_serves_openmetrics(self, tmp_path):
        # Ephemeral port; the bound port lands in the status file and a
        # scrape during-run state is covered by smoke_slo -- here we
        # check the port is published and freed after the run.
        status_path = tmp_path / "status.json"
        run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                    status_path=status_path, metrics_port=0)
        status = read_status(status_path)
        assert status["serving"]["metrics_port"] > 0
