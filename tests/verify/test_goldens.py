"""The conformance golden corpus, and regeneration of all three corpora.

The drift battery itself lives in ``golden_battery.py``; this module
binds it to the conformance corpus and adds what is particular to it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.verify.goldens import COLUMNAR, CONFORMANCE, CORPORA

from .golden_battery import (
    CommittedCorpusChecks,
    DriftChecks,
    RegenerationChecks,
)

REGEN_SCRIPT = (
    Path(__file__).resolve().parents[2] / "scripts" / "regen_goldens.py"
)


class TestCommittedCorpus(CommittedCorpusChecks):
    corpus = CONFORMANCE

    def test_every_registry_policy_is_pinned(self):
        from repro.policies.registry import policy_names

        pinned = {cell[0] for cell in CONFORMANCE.cells()}
        assert pinned == set(policy_names())


class TestDriftDetection(DriftChecks):
    corpus = CONFORMANCE


class TestRegeneration(RegenerationChecks):
    corpus = CONFORMANCE

    def test_compute_golden_is_deterministic(self):
        cell = CONFORMANCE.cells()[0]
        assert (CONFORMANCE.compute(cell, "cache")
                == CONFORMANCE.compute(cell, "cache"))

    @pytest.mark.parametrize("policy", ["belady"])
    def test_future_policies_compute(self, policy):
        cell = (policy, "zipf-hot", 0, 8, 4, 300)
        misses = CONFORMANCE.compute(cell, "cache")
        assert 0 < misses <= 300


def test_regen_prints_each_moved_entry(tmp_path, monkeypatch, capsys):
    """A plain regeneration names every entry it moves, in every corpus."""
    spec = importlib.util.spec_from_file_location("regen_goldens",
                                                  REGEN_SCRIPT)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    for corpus in CORPORA:
        copy = tmp_path / corpus.path.name
        copy.write_text(corpus.path.read_text())
        monkeypatch.setattr(corpus, "path", copy)
    payload = json.loads(COLUMNAR.path.read_text())
    key = COLUMNAR.key(COLUMNAR.cells()[-1])
    value = payload["entries"][key]
    bumped = dict(value, misses=[value["misses"][0] + 1]
                  + value["misses"][1:])
    payload["entries"][key] = bumped
    COLUMNAR.path.write_text(json.dumps(payload))

    assert regen.main([]) == 0
    out = capsys.readouterr().out
    assert f"  {key}: {bumped} -> {value}\n" in out
    for corpus in CORPORA:
        moved = 1 if corpus is COLUMNAR else 0
        assert (f"wrote {corpus.path}: {len(corpus.cells())} cells, "
                f"{moved} entries moved") in out
    assert json.loads(COLUMNAR.path.read_text())["entries"][key] == value
