"""Columnar-engine conformance cells and the columnar golden corpus.

Two layers of pinning: the differential checks compare columnar against
walk *and* LUT (misses, miss indices, final positions) on live streams,
and the committed golden corpus freezes exact miss counts per (kind,
stream, geometry) and recomputes them through every engine, so any
engine divergence — including one that affects all engines
identically-wrongly — shows up as drift.  Its duel cells pin
:func:`repro.engine.scalar.simulate_duel` (misses and PSEL).  The corpus
runs the shared drift battery (``golden_battery.py``).
"""

import json

import pytest

import repro.engine.scalar as scalar_engine
from repro.engine.columnar import columnar_supported
from repro.verify.differential import check_columnar_equality
from repro.verify.goldens import COLUMNAR, COLUMNAR_GOLDEN_BATCH, check_corpus
from repro.verify.streams import generate_stream

from .golden_battery import (
    CommittedCorpusChecks,
    DriftChecks,
    RegenerationChecks,
)


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


class TestColumnarGoldens(CommittedCorpusChecks):
    corpus = COLUMNAR

    def test_matrix_shape(self):
        matrix = COLUMNAR.cells()
        kinds = {cell[0] for cell in matrix}
        assert kinds == {"ipv", "duel"}
        assocs = {cell[4] for cell in matrix}
        assert {2, 4, 8, 16} <= assocs
        # Prime chunk size: every stream exercises ragged batch tails.
        assert COLUMNAR_GOLDEN_BATCH == 193
        keys = [COLUMNAR.key(cell) for cell in matrix]
        assert len(keys) == len(set(keys))

    def test_engines_agree_on_one_cell(self):
        cell = COLUMNAR.cells()[0]
        assert COLUMNAR.engines(cell) == ("columnar", "walk", "lut")
        columnar, walk, lut = (
            COLUMNAR.compute(cell, engine) for engine in COLUMNAR.engines(cell)
        )
        assert columnar == walk == lut

    def test_duel_cell_pins_psel(self):
        duel_cells = [c for c in COLUMNAR.cells() if c[0] == "duel"]
        assert duel_cells, "matrix must include multi-lane PSEL duels"
        assert COLUMNAR.engines(duel_cells[0]) == ("simulate_duel", "scalar")
        result = COLUMNAR.compute(duel_cells[0], "simulate_duel")
        scalar = COLUMNAR.compute(duel_cells[0], "scalar")
        assert result == scalar
        assert "psel" in result and "misses" in result
        with pytest.raises(ValueError, match="no engine 'columnar'"):
            COLUMNAR.compute(duel_cells[0], "columnar")

    def test_duel_cells_pin_the_follower_pass(self, monkeypatch):
        """Followers that never switch vectors drift every duel cell's
        misses, though the replay still leaves PSEL where it was."""
        real = scalar_engine.duel_selections

        def never_switch(selector, miss_sets, miss_indices):
            starts, picks = real(selector, miss_sets, miss_indices)
            return starts[:1], picks[:1]

        monkeypatch.setattr(scalar_engine, "duel_selections", never_switch)
        committed = json.loads(COLUMNAR.path.read_text())["entries"]
        duel_keys = []
        for cell in COLUMNAR.cells():
            if cell[0] != "duel":
                continue
            key = COLUMNAR.key(cell)
            duel_keys.append(key)
            result = COLUMNAR.compute(cell, "simulate_duel")
            assert result["psel"] == committed[key]["psel"], key
            assert result["misses"] != committed[key]["misses"], key
        drift, _ = check_corpus(COLUMNAR)
        assert len(drift) == len(duel_keys), drift
        for key, line in zip(duel_keys, drift):
            assert line.startswith(f"{key}: simulate_duel "), line


class TestColumnarDriftDetection(DriftChecks):
    corpus = COLUMNAR


class TestColumnarRegeneration(RegenerationChecks):
    corpus = COLUMNAR
