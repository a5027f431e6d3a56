"""Provenance manifests: content, sidecar paths, atomic writes."""

import json

from repro.eval.config import ExperimentConfig
from repro.obs import (
    build_manifest,
    config_hash,
    git_revision,
    manifest_path_for,
    write_manifest,
)
from repro.obs.provenance import MANIFEST_SCHEMA, write_atomic

import pytest


def _config(**kwargs):
    kwargs.setdefault("apply_env_scale", False)
    return ExperimentConfig(num_sets=16, assoc=4, trace_length=1000, **kwargs)


class TestBuildManifest:
    def test_required_fields_present(self):
        manifest = build_manifest(
            config=_config(), policy="dgippr",
            policy_kwargs={"num_vectors": 4}, wall_time_sec=1.25,
        )
        for field in ("schema", "created_at", "host", "user", "platform",
                      "python", "code_version", "git_revision", "config",
                      "config_hash", "policy", "policy_kwargs", "seed",
                      "wall_time_sec"):
            assert field in manifest, field
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["policy"] == "dgippr"
        assert manifest["wall_time_sec"] == 1.25
        json.dumps(manifest)  # must be JSON-serializable as-is

    def test_seed_defaults_from_config(self):
        manifest = build_manifest(config=_config(seed=17))
        assert manifest["seed"] == 17

    def test_extra_merged_and_collisions_rejected(self):
        manifest = build_manifest(extra={"benchmark": "429.mcf"})
        assert manifest["benchmark"] == "429.mcf"
        with pytest.raises(ValueError, match="collides"):
            build_manifest(extra={"schema": "evil"})

    def test_config_hash_is_stable_and_sensitive(self):
        assert config_hash(_config()) == config_hash(_config())
        assert config_hash(_config()) != config_hash(_config(seed=1))
        assert config_hash(None) is None

    def test_git_revision_never_raises(self):
        rev = git_revision()
        assert isinstance(rev, str) and rev


class TestSidecar:
    def test_manifest_path_for(self):
        assert manifest_path_for("results/fig4.csv").name == (
            "fig4.manifest.json"
        )
        assert manifest_path_for("results/report.md").name == (
            "report.manifest.json"
        )
        # Idempotent on an existing manifest path.
        assert manifest_path_for("a/b.manifest.json").name == (
            "b.manifest.json"
        )

    def test_write_and_read_back(self, tmp_path):
        artifact = tmp_path / "out" / "fig.csv"
        manifest = build_manifest(config=_config(), policy="lru")
        path = write_manifest(artifact, manifest)
        assert path == tmp_path / "out" / "fig.manifest.json"
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(manifest)
        )
        # No temp file left behind.
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_atomic_write_failure_raises_and_leaves_no_temp_file(
        self, tmp_path
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        with pytest.raises(OSError):
            write_atomic(blocker / "out.json", "{}")
        # The target is a directory: the temp file is written, and the
        # failed replace must remove it.
        (tmp_path / "dir.json").mkdir()
        with pytest.raises(OSError):
            write_atomic(tmp_path / "dir.json", "{}")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "blocker", "dir.json"
        ]
