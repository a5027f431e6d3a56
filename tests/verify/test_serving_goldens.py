"""The committed serving corpus: drift is caught and offenders named.

The serving cells pin the whole pipeline — Zipf/churn/flash generator,
set-shard binning, streaming engines — as one miss count per
``seed x policy x alpha`` cell.  The checker recomputes every cell via
the single-shard scalar reference and (with numpy) the sharded columnar
front-end, which doubles as the sharding bit-identity conformance gate.
"""

import json

import pytest

from repro.verify.goldens import (
    DEFAULT_SERVING_GOLDENS_PATH,
    SERVING_GOLDEN_ALPHAS,
    SERVING_GOLDEN_POLICIES,
    SERVING_GOLDEN_SCHEMA,
    SERVING_GOLDEN_SEEDS,
    SERVING_GOLDEN_SHARDS,
    check_serving_goldens,
    compute_serving_golden,
    serving_golden_key,
    serving_golden_matrix,
)


class TestCommittedServingCorpus:
    def test_corpus_file_is_committed(self):
        assert DEFAULT_SERVING_GOLDENS_PATH.exists(), (
            "tests/goldens/serving_goldens.json must be committed; "
            "regenerate with scripts/regen_goldens.py"
        )

    def test_corpus_matches_current_behaviour(self):
        drift, checked = check_serving_goldens()
        assert drift == [], "\n".join(drift)
        assert checked == len(serving_golden_matrix())

    def test_matrix_shape(self):
        cells = serving_golden_matrix()
        assert len(cells) == (
            len(SERVING_GOLDEN_SEEDS)
            * len(SERVING_GOLDEN_POLICIES)
            * len(SERVING_GOLDEN_ALPHAS)
        )
        keys = {serving_golden_key(c) for c in cells}
        assert len(keys) == len(cells)

    def test_schema_and_metadata(self):
        payload = json.loads(DEFAULT_SERVING_GOLDENS_PATH.read_text())
        assert payload["schema"] == SERVING_GOLDEN_SCHEMA
        assert len(payload["entries"]) == len(serving_golden_matrix())


class TestServingDriftDetection:
    def test_tampered_entry_names_cell_and_engine(self, tmp_path):
        payload = json.loads(DEFAULT_SERVING_GOLDENS_PATH.read_text())
        key = serving_golden_key(serving_golden_matrix()[0])
        payload["entries"][key] += 1
        tampered = tmp_path / "serving_goldens.json"
        tampered.write_text(json.dumps(payload))
        drift, _ = check_serving_goldens(tampered)
        assert drift, "tampered corpus must drift"
        assert all(key in line for line in drift)
        assert any("scalar" in line for line in drift)

    def test_missing_corpus_is_drift_not_pass(self, tmp_path):
        drift, checked = check_serving_goldens(tmp_path / "absent.json")
        assert checked == 0
        assert drift and "missing" in drift[0]

    def test_unknown_schema_is_drift(self, tmp_path):
        bad = tmp_path / "serving_goldens.json"
        bad.write_text(json.dumps({"schema": "nope/9", "entries": {}}))
        drift, checked = check_serving_goldens(bad)
        assert checked == 0
        assert drift and "schema" in drift[0]


class TestShardingBitIdentity:
    """The acceptance contract: sharded == single-shard scalar, exactly."""

    @pytest.mark.parametrize("cell", serving_golden_matrix()[:4])
    def test_sharded_columnar_equals_scalar_reference(self, cell):
        reference = compute_serving_golden(cell, engine="scalar", shards=1)
        sharded = compute_serving_golden(
            cell, engine="columnar", shards=SERVING_GOLDEN_SHARDS
        )
        assert sharded == reference

    def test_scalar_sharding_also_bit_identical(self):
        cell = serving_golden_matrix()[0]
        reference = compute_serving_golden(cell, engine="scalar", shards=1)
        sharded = compute_serving_golden(cell, engine="scalar", shards=8)
        assert sharded == reference
