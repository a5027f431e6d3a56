"""Unit tests for ``run_serving``: report, obs wiring, provenance.

One small spec drives the full path — generator, sharded front-end,
status publisher, JSON report and provenance manifest — and every
surface is checked against the direct front-end numbers.
"""

import json

import pytest

from repro.core.ipv import lip_ipv, lru_ipv
from repro.obs.provenance import manifest_path_for
from repro.obs.status import read_status
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
        assert payload["schema"] == "repro-serving-report/5"
        assert "backend" not in payload
        assert "slo" not in payload
        assert payload["spec_digest"] == SPEC.digest()
        assert payload["seed"] == SPEC.resolved_seed()
        assert payload["seed_derived"] is False
        assert payload["shards"] == 2
        assert payload["accesses"] == SPEC.accesses
        assert payload["misses"] == report.misses
        assert len(payload["shards_detail"]) == 2
        assert payload["totals"]["accesses"] == SPEC.accesses
        assert payload["retired_keys"] > 0

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

    def test_failed_run_finalizes_status(self, tmp_path, monkeypatch):
        def broken(self, chunk):
            raise RuntimeError("shard lost")

        monkeypatch.setattr(ShardedFrontend, "process", broken)
        status_path = tmp_path / "serve.status.json"
        with pytest.raises(RuntimeError):
            run_serving(SPEC, NUM_SETS, ASSOC, status_path=status_path,
                        chunk_accesses=4096)
        status = read_status(status_path)
        assert status["final"] is True
        assert status["phase"] == "failed"
        assert status["error"] == "RuntimeError: shard lost"

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


class TestServingTelemetry:
    def test_report_carries_telemetry_block(self):
        report = run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                             chunk_accesses=4096)
        telem = report.telemetry
        assert telem is not None
        assert set(telem) == {
            "latency", "latency_histogram", "batch_latency", "shards",
        }
        assert telem["latency"]["p99"] > 0
        assert telem["latency_histogram"]["sub_bits"] == 5
        assert telem["latency_histogram"]["count"] == SPEC.accesses
        assert len(telem["shards"]) == 2
        # Five chunks, each split into one sub-batch per shard.
        assert [s["batches"] for s in telem["shards"]] == [5, 5]
        payload = report.to_dict()
        assert payload["telemetry"] is telem
        assert payload["shed_ratio"] == 0.0

    def test_status_carries_serving_section(self, tmp_path):
        status_path = tmp_path / "status.json"
        run_serving(SPEC, NUM_SETS, ASSOC, shards=2,
                    status_path=status_path, chunk_accesses=4096)
        serving = read_status(status_path)["serving"]
        assert set(serving) == {"latency", "shards"}
        assert [s["batches"] for s in serving["shards"]] == [5, 5]
