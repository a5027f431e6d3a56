"""Columnar-engine conformance cells and the columnar golden corpus.

Two layers of pinning: the differential checks compare columnar against
walk *and* LUT (misses, miss indices, final positions) on live streams,
and the committed golden corpus freezes exact miss counts per (kind,
stream, geometry, engine) so any engine divergence — including one that
affects all engines identically-wrongly — shows up as drift.  Its duel
cells pin :func:`repro.engine.scalar.simulate_duel` (misses and PSEL).
"""

import json

import pytest

import repro.engine.scalar as scalar_engine
from repro.engine.columnar import columnar_supported
from repro.verify.differential import check_columnar_equality
from repro.verify.goldens import (
    COLUMNAR_GOLDEN_BATCH,
    DEFAULT_COLUMNAR_GOLDENS_PATH,
    check_columnar_goldens,
    columnar_golden_key,
    columnar_golden_matrix,
    compute_columnar_golden,
)
from repro.verify.streams import generate_stream


def stream_for(num_sets, assoc, name="random-uniform", seed=11, n=2500):
    return generate_stream(name, seed, n, num_sets, assoc)


class TestDifferentialChecks:
    @pytest.mark.parametrize("num_sets,assoc", [(16, 2), (8, 4), (8, 8),
                                                (4, 16)])
    def test_columnar_equality_on_grid(self, num_sets, assoc):
        import random

        rng = random.Random(assoc)
        entries = [rng.randrange(assoc) for _ in range(assoc + 1)]
        accesses = stream_for(num_sets, assoc)
        failure = check_columnar_equality(
            num_sets, assoc, entries, accesses
        )
        assert failure is None, failure

    def test_checks_skip_without_support(self):
        # No base tables above 16 ways: the columnar check passes trivially.
        assert not columnar_supported(32)
        assert check_columnar_equality(8, 32, [0] * 33, [1, 2, 3]) is None

    def test_checks_skip_empty_stream(self):
        assert check_columnar_equality(8, 4, [0] * 5, []) is None


class TestColumnarGoldens:
    def test_matrix_shape(self):
        matrix = columnar_golden_matrix()
        kinds = {cell[0] for cell in matrix}
        assert kinds == {"ipv", "duel"}
        assocs = {cell[4] for cell in matrix}
        assert {2, 4, 8, 16} <= assocs
        # Prime chunk size: every stream exercises ragged batch tails.
        assert COLUMNAR_GOLDEN_BATCH == 193
        keys = [columnar_golden_key(cell) for cell in matrix]
        assert len(keys) == len(set(keys))

    def test_committed_corpus_matches(self):
        assert DEFAULT_COLUMNAR_GOLDENS_PATH.exists(), (
            "columnar golden corpus missing; run scripts/regen_goldens.py"
        )
        drift, checked = check_columnar_goldens()
        assert drift == [], drift
        assert checked == len(columnar_golden_matrix())

    def test_engines_agree_on_one_cell(self):
        cell = columnar_golden_matrix()[0]
        columnar = compute_columnar_golden(cell, engine="columnar")
        walk = compute_columnar_golden(cell, engine="walk")
        lut = compute_columnar_golden(cell, engine="lut")
        assert columnar == walk == lut

    def test_duel_cell_pins_psel(self):
        duel_cells = [c for c in columnar_golden_matrix() if c[0] == "duel"]
        assert duel_cells, "matrix must include multi-lane PSEL duels"
        result = compute_columnar_golden(duel_cells[0], engine="simulate_duel")
        scalar = compute_columnar_golden(duel_cells[0], engine="scalar")
        assert result == scalar
        assert "psel" in result and "misses" in result
        with pytest.raises(ValueError, match="no engine 'columnar'"):
            compute_columnar_golden(duel_cells[0], engine="columnar")

    def test_duel_cells_pin_the_follower_pass(self, monkeypatch):
        """Followers that never switch vectors drift every duel cell's
        misses, though the replay still leaves PSEL where it was."""
        real = scalar_engine.duel_selections

        def never_switch(selector, miss_sets, miss_indices):
            starts, picks = real(selector, miss_sets, miss_indices)
            return starts[:1], picks[:1]

        monkeypatch.setattr(scalar_engine, "duel_selections", never_switch)
        with open(DEFAULT_COLUMNAR_GOLDENS_PATH) as handle:
            committed = json.load(handle)["entries"]
        duel_keys = []
        for cell in columnar_golden_matrix():
            if cell[0] != "duel":
                continue
            key = columnar_golden_key(cell)
            duel_keys.append(key)
            result = compute_columnar_golden(cell, engine="simulate_duel")
            assert result["psel"] == committed[key]["psel"], key
            assert result["misses"] != committed[key]["misses"], key
        drift, _ = check_columnar_goldens()
        assert len(drift) == len(duel_keys), drift
        for key, line in zip(duel_keys, drift):
            assert line.startswith(f"{key}: simulate_duel "), line
