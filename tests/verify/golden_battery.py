"""One drift battery for the three committed golden corpora.

A corpus's test module binds each class here to its corpus by
subclassing with ``corpus = <the Corpus>``, so every corpus runs the same
checks under its own test ids.  Damaged copies live under ``tmp_path``:
the ``redirect`` fixture points ``corpus.path`` there.
"""

import json

import pytest

from repro.verify.goldens import check_corpus, write_corpus


class _BoundChecks:
    corpus = None

    @pytest.fixture
    def redirect(self, tmp_path, monkeypatch):
        """Point the bound corpus at an absent scratch file.

        Returns ``(scratch_path, committed_text)``; the committed file is
        read first and never written.
        """
        committed = self.corpus.path.read_text()
        path = tmp_path / self.corpus.path.name
        monkeypatch.setattr(self.corpus, "path", path)
        return path, committed


class CommittedCorpusChecks(_BoundChecks):
    def test_corpus_file_is_committed(self):
        assert self.corpus.path.exists(), (
            f"{self.corpus.path} must be committed; regenerate with "
            "scripts/regen_goldens.py"
        )

    def test_corpus_matches_current_behaviour(self):
        drift, checked = check_corpus(self.corpus)
        assert drift == [], "\n".join(drift)
        assert checked == len(self.corpus.cells())

    def test_schema_and_metadata(self):
        payload = json.loads(self.corpus.path.read_text())
        entries = payload.pop("entries")
        assert payload == dict(self.corpus.header, schema=self.corpus.schema)
        assert len(entries) == len(self.corpus.cells())


class DriftChecks(_BoundChecks):
    def test_tampered_entry_names_cell_and_engine(self, redirect):
        path, committed = redirect
        payload = json.loads(committed)
        cell = self.corpus.cells()[0]
        key = self.corpus.key(cell)
        payload["entries"][key] = -1
        path.write_text(json.dumps(payload))
        drift, checked = check_corpus(self.corpus)
        assert checked == len(self.corpus.cells())
        assert drift == [
            f"{key}: {engine} {self.corpus.compute(cell, engine)!r} "
            "!= committed -1"
            for engine in self.corpus.engines(cell)
        ]

    def test_missing_corpus_is_drift_not_pass(self, redirect):
        path, _ = redirect
        drift, checked = check_corpus(self.corpus)
        assert checked == 0
        assert drift == [f"{path}: corpus missing (regen needed)"]

    @pytest.mark.parametrize("damage", ["torn", "list", "entries-list"])
    def test_unreadable_corpus_is_one_drift_line(self, redirect, damage):
        path, committed = redirect
        path.write_text({
            "torn": committed[: len(committed) // 2],
            "list": "[]",
            "entries-list": json.dumps(dict(json.loads(committed),
                                            entries=[])),
        }[damage])
        drift, checked = check_corpus(self.corpus)
        assert checked == 0
        assert len(drift) == 1 and drift[0].startswith(f"{path}: "), drift

    def test_unknown_schema_is_drift(self, redirect):
        path, committed = redirect
        path.write_text(json.dumps(dict(json.loads(committed),
                                        schema="other/1")))
        drift, checked = check_corpus(self.corpus)
        assert checked == 0
        assert len(drift) == 1 and drift[0].startswith(f"{path}: ")
        assert "unknown schema 'other/1'" in drift[0]

    def test_stale_extra_entry_is_drift(self, redirect):
        path, committed = redirect
        payload = json.loads(committed)
        payload["entries"]["ghost"] = 123
        path.write_text(json.dumps(payload))
        drift, _ = check_corpus(self.corpus)
        assert drift == [f"ghost: in {path.name} but no longer in the matrix"]

    def test_cell_missing_from_file_is_drift(self, redirect):
        path, committed = redirect
        payload = json.loads(committed)
        key = self.corpus.key(self.corpus.cells()[-1])
        del payload["entries"][key]
        path.write_text(json.dumps(payload))
        drift, checked = check_corpus(self.corpus)
        assert checked == len(self.corpus.cells()) - 1
        assert drift == [f"{key}: not in {path.name} (regen needed)"]


class RegenerationChecks(_BoundChecks):
    def test_write_then_check_roundtrip(self, redirect):
        path, committed = redirect
        payload = json.loads(committed)
        key = self.corpus.key(self.corpus.cells()[0])
        value = payload["entries"][key]
        payload["entries"][key] = -1
        path.write_text(json.dumps(payload))
        assert write_corpus(self.corpus) == {key: (-1, value)}
        assert path.read_text() == committed
        drift, checked = check_corpus(self.corpus)
        assert drift == [] and checked == len(self.corpus.cells())
        # Provenance manifest sidecar rides along.
        manifest = json.loads(
            path.with_name(f"{path.stem}.manifest.json").read_text()
        )
        assert manifest["goldens"] == {
            "corpus": self.corpus.name,
            "schema": self.corpus.schema,
            "entries": checked,
        }

    def test_writer_refuses_when_engines_disagree(self, redirect,
                                                  monkeypatch):
        path, _ = redirect
        engines, compute = self.corpus.engines, self.corpus.compute
        monkeypatch.setattr(self.corpus, "engines",
                            lambda cell: engines(cell) + ("skewed",))
        monkeypatch.setattr(
            self.corpus, "compute",
            lambda cell, engine: (
                -1 if engine == "skewed" else compute(cell, engine)
            ),
        )
        with pytest.raises(AssertionError, match="refusing to write"):
            write_corpus(self.corpus)
        assert not path.exists()
