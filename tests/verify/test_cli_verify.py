"""The ``repro verify`` subcommand: exit codes, artifacts, reports."""

import json

from repro.cli import main
from repro.verify.conformance import policy_kwargs
from repro.verify.goldens import CONFORMANCE
from repro.verify.shrink import write_artifact


class TestVerifyCommand:
    def test_single_policy_quick_passes(self, capsys):
        code = main([
            "verify", "--policy", "lru", "--quick",
            "--fuzz-budget", "600", "--no-goldens",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "lru" in out and "PASSED" in out

    def test_multiple_policies(self, capsys):
        code = main([
            "verify", "--policy", "plru", "gippr", "--quick",
            "--fuzz-budget", "600", "--no-goldens",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "plru" in out and "gippr" in out

    def test_goldens_included_by_default(self, capsys):
        code = main([
            "verify", "--policy", "lru", "--quick", "--fuzz-budget", "600",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "goldens:" in out and "match" in out

    def test_report_and_manifest_written(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--policy", "lru", "--quick", "--fuzz-budget", "600",
            "--no-goldens", "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["policies"][0]["policy"] == "lru"
        manifest = tmp_path / "report.manifest.json"
        assert manifest.exists()
        recorded = json.loads(manifest.read_text())
        assert recorded["conformance"]["policies"] == ["lru"]
        assert "kernels" in recorded and "code_version" in recorded

    def test_golden_drift_fails_with_nonzero_exit(
        self, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "goldens.json"
        bad.write_text(json.dumps({
            "schema": "repro-goldens/1",
            "entries": {"lru|zipf-hot|s0|8x4|n1000": -1},
        }))
        monkeypatch.setattr(CONFORMANCE, "path", bad)
        code = main([
            "verify", "--policy", "lru", "--quick", "--fuzz-budget", "600",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "drift" in out and "FAILED" in out

    def test_replay_of_stale_artifact_reports_fixed(self, tmp_path, capsys):
        path = tmp_path / "repro.json"
        write_artifact(
            path,
            policy="gippr",
            num_sets=8,
            assoc=4,
            accesses=[0, 0, 8, 0],
            divergence={"index": 3, "block": 0, "kind": "positions",
                        "detail": "stale"},
            policy_kwargs=policy_kwargs("gippr", 8, 4),
            oracle="plru-positions",
        )
        code = main(["verify", "--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no longer reproduces" in out

    def test_replay_of_non_object_artifact_is_a_usage_error(
        self, tmp_path, capsys
    ):
        for name, text, message in (
            ("list.json", "[1, 2]", "not a JSON object"),
            ("fields.json", '{"schema": "repro-counterexample/1"}',
             "'policy'"),
        ):
            path = tmp_path / name
            path.write_text(text)
            code = main(["verify", "--replay", str(path)])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(f"cannot replay {path}: ")
            assert message in err

    def test_replay_of_missing_artifact_is_a_usage_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "absent.json"
        code = main(["verify", "--replay", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"cannot replay {path}: ")
