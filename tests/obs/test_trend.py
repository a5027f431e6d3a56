"""Perf-trend history: recording, direction convention, comparator, CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.trend import (
    DEFAULT_THRESHOLD,
    TREND_SCHEMA,
    compare_entries,
    flatten_bench_kernels,
    format_deltas,
    latest_deltas,
    lower_is_better,
    read_history,
    record_bench_kernels,
    record_entry,
)


def _entry(metrics):
    return {"schema": TREND_SCHEMA, "metrics": metrics}


# ----------------------------------------------------------------------
# Recording + reading.
# ----------------------------------------------------------------------
def test_record_entry_appends_keyed_by_revision(tmp_path, monkeypatch):
    from repro.obs.provenance import _reset_git_revision_memo

    _reset_git_revision_memo()  # revision is memoized per process
    monkeypatch.setenv("REPRO_GIT_REVISION", "cafebabe" * 5)
    try:
        history = tmp_path / "hist.jsonl"
        entry = record_entry(history, {"sim.k16.lut_accesses_per_sec": 1e6,
                                       "skipped": float("nan")},
                             source="bench-kernels", extra={"note": "x"})
        assert entry["git_revision"].startswith("cafebabe")
        assert "skipped" not in entry["metrics"]  # NaN dropped

        entries = read_history(history)
        assert len(entries) == 1
        assert entries[0]["source"] == "bench-kernels"
        assert entries[0]["extra"] == {"note": "x"}
    finally:
        _reset_git_revision_memo()  # drop the fake revision for later tests


def test_read_history_skips_malformed_and_alien_lines(tmp_path):
    history = tmp_path / "hist.jsonl"
    record_entry(history, {"m_sec": 1.0}, source="a")
    with open(history, "a") as handle:
        handle.write('{"schema": "other/1"}\n')  # alien schema
        handle.write("not json at all\n")
    record_entry(history, {"m_sec": 2.0}, source="b")
    with open(history, "a") as handle:
        handle.write('{"schema": "repro-tre')  # machine died mid-append

    entries = read_history(history)
    assert [e["source"] for e in entries] == ["a", "b"]
    assert read_history(history, source="b")[0]["metrics"] == {"m_sec": 2.0}


def test_read_history_missing_file_is_empty(tmp_path):
    assert read_history(tmp_path / "nope.jsonl") == []


# ----------------------------------------------------------------------
# Direction convention.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric,expected", [
    ("ga.lut_sec_per_generation", True),
    ("suite_wall_sec", True),
    ("total_seconds", True),
    ("latency_ms", True),
    ("peak_bytes", True),
    # Rate metrics must win over the `_sec` suffix they also end in.
    ("sim.k16.lut_accesses_per_sec", False),
    ("sim.k16.speedup", False),
    ("ga.speedup", False),
    ("some_count", False),
])
def test_lower_is_better_direction_convention(metric, expected):
    assert lower_is_better(metric) is expected


# ----------------------------------------------------------------------
# Comparator.
# ----------------------------------------------------------------------
def test_compare_entries_direction_aware():
    prev = _entry({"thr_per_sec": 100.0, "wall_sec": 10.0, "gone": 1.0})
    cur = _entry({"thr_per_sec": 50.0, "wall_sec": 8.0, "new": 2.0})
    deltas = {d["metric"]: d for d in compare_entries(prev, cur)}

    assert set(deltas) == {"thr_per_sec", "wall_sec", "gone", "new"}
    # Throughput halved: worse, and past the 15% default threshold.
    assert deltas["thr_per_sec"]["direction"] == "worse"
    assert deltas["thr_per_sec"]["regression"] is True
    assert deltas["thr_per_sec"]["delta_frac"] == pytest.approx(-0.5)
    # Wall time dropped 20%: better.
    assert deltas["wall_sec"]["direction"] == "better"
    assert deltas["wall_sec"]["regression"] is False
    # A vanished metric is a regression (a collapsed series must not
    # evade the gate by disappearing); a new one is informational.
    assert deltas["gone"]["direction"] == "removed"
    assert deltas["gone"]["regression"] is True
    assert deltas["gone"] == {
        "metric": "gone", "prev": 1.0, "cur": None,
        "delta_frac": None, "direction": "removed", "regression": True,
    }
    assert deltas["new"] == {
        "metric": "new", "prev": None, "cur": 2.0,
        "delta_frac": None, "direction": "added", "regression": False,
    }


def test_compare_entries_orders_common_then_removed_then_added():
    prev = _entry({"b_sec": 1.0, "a_sec": 2.0, "zap": 1.0})
    cur = _entry({"b_sec": 1.0, "a_sec": 2.0, "arrival": 3.0})
    order = [d["metric"] for d in compare_entries(prev, cur)]
    assert order == ["a_sec", "b_sec", "zap", "arrival"]


def test_compare_entries_threshold_and_flat():
    prev = _entry({"wall_sec": 10.0, "same_sec": 5.0})
    cur = _entry({"wall_sec": 11.0, "same_sec": 5.0})  # +10% rise
    deltas = {d["metric"]: d
              for d in compare_entries(prev, cur, threshold=0.15)}
    assert deltas["wall_sec"]["direction"] == "worse"
    assert deltas["wall_sec"]["regression"] is False  # under threshold
    assert deltas["same_sec"]["direction"] == "flat"

    tight = {d["metric"]: d
             for d in compare_entries(prev, cur, threshold=0.05)}
    assert tight["wall_sec"]["regression"] is True


def test_compare_entries_skips_zero_baseline_and_rejects_bad_threshold():
    prev = _entry({"wall_sec": 0.0})
    assert compare_entries(prev, _entry({"wall_sec": 5.0})) == []
    with pytest.raises(ValueError):
        compare_entries(prev, prev, threshold=-0.1)


def test_latest_deltas_needs_two_entries(tmp_path):
    history = tmp_path / "hist.jsonl"
    assert latest_deltas(history) is None
    record_entry(history, {"wall_sec": 10.0}, source="bench-kernels")
    assert latest_deltas(history) is None
    record_entry(history, {"wall_sec": 20.0}, source="bench-kernels")

    summary = latest_deltas(history)
    assert summary["threshold"] == DEFAULT_THRESHOLD
    assert len(summary["regressions"]) == 1
    assert summary["regressions"][0]["metric"] == "wall_sec"
    # Source filtering ignores entries from other recorders.
    record_entry(history, {"wall_sec": 1.0}, source="other")
    filtered = latest_deltas(history, source="bench-kernels")
    assert filtered["regressions"][0]["cur"] == 20.0


def test_latest_deltas_pairs_entries_from_the_same_source(tmp_path):
    """Interleaved recorders must not be compared against each other.

    A ``bench-serving`` row landing between two ``bench-kernels`` rows
    would otherwise make every kernel metric look removed/added.
    """
    history = tmp_path / "hist.jsonl"
    record_entry(history, {"k_sec": 10.0}, source="bench-kernels")
    record_entry(history, {"serving_throughput": 1e6},
                 source="bench-serving")
    record_entry(history, {"k_sec": 11.0}, source="bench-kernels")

    summary = latest_deltas(history)
    assert summary["source"] == "bench-kernels"
    assert [d["metric"] for d in summary["deltas"]] == ["k_sec"]
    assert summary["deltas"][0]["prev"] == 10.0
    assert summary["deltas"][0]["cur"] == 11.0
    assert not any(d["direction"] in ("removed", "added")
                   for d in summary["deltas"])

    # Pinning the source picks the newest entry of *that* series.
    serving = latest_deltas(history, source="bench-serving")
    assert serving is None  # only one serving row so far
    record_entry(history, {"serving_throughput": 2e6},
                 source="bench-serving")
    serving = latest_deltas(history, source="bench-serving")
    assert serving["source"] == "bench-serving"
    assert serving["deltas"][0]["cur"] == 2e6


def test_format_deltas_marks_regressions():
    deltas = compare_entries(_entry({"wall_sec": 10.0}),
                             _entry({"wall_sec": 20.0}))
    text = format_deltas(deltas)
    assert "!! REGRESSION" in text
    assert "+100.0%" in text


def test_format_deltas_renders_removed_and_added():
    deltas = compare_entries(_entry({"gone_sec": 3.0}),
                             _entry({"new_per_sec": 7.0}))
    text = format_deltas(deltas)
    assert "gone_sec" in text and "(absent)" in text
    assert "!! REGRESSION" in text  # the removal
    assert "new_per_sec" in text and "(added)" in text
    assert format_deltas([]) == "(no comparable metrics)"


# ----------------------------------------------------------------------
# BENCH_kernels.json flattening.
# ----------------------------------------------------------------------
def test_flatten_and_record_bench_kernels(tmp_path):
    bench = {
        "created_at": "2026-08-06T00:00:00",
        "stream": {"accesses": 1000},
        "sim_throughput": [
            {"assoc": 16, "lut_accesses_per_sec": 2e6,
             "walk_accesses_per_sec": 1e6, "speedup": 2.0},
        ],
        "ga_generation": {"lut_sec_per_generation": 0.5, "speedup": 3.0},
    }
    bench_path = tmp_path / "BENCH_kernels.json"
    bench_path.write_text(json.dumps(bench))
    history = tmp_path / "hist.jsonl"

    entry = record_bench_kernels(bench_path, history)
    assert entry["metrics"] == {
        "sim.k16.lut_accesses_per_sec": 2e6,
        "sim.k16.walk_accesses_per_sec": 1e6,
        "sim.k16.speedup": 2.0,
        "ga.lut_sec_per_generation": 0.5,
        "ga.speedup": 3.0,
    }
    assert entry["extra"]["accesses"] == 1000
    assert len(read_history(history)) == 1


def test_record_bench_kernels_rejects_empty_payload(tmp_path):
    bench_path = tmp_path / "empty.json"
    bench_path.write_text("{}")
    with pytest.raises(ValueError):
        record_bench_kernels(bench_path, tmp_path / "hist.jsonl")
    assert flatten_bench_kernels({}) == {}


# ----------------------------------------------------------------------
# CLI gate: `repro obs trend --check`.
# ----------------------------------------------------------------------
def test_cli_trend_check_exits_nonzero_on_regression(tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    record_entry(history, {"sim.k16.lut_accesses_per_sec": 2e6},
                 source="bench-kernels")
    record_entry(history, {"sim.k16.lut_accesses_per_sec": 1e6},
                 source="bench-kernels")
    rc = cli_main(["obs", "trend", "--history", str(history), "--check"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "REGRESSION" in captured.err


def test_cli_trend_check_passes_on_improvement(tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    record_entry(history, {"sim.k16.lut_accesses_per_sec": 1e6},
                 source="bench-kernels")
    record_entry(history, {"sim.k16.lut_accesses_per_sec": 2e6},
                 source="bench-kernels")
    rc = cli_main(["obs", "trend", "--history", str(history), "--check"])
    assert rc == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_trend_check_tolerates_short_history(tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    record_entry(history, {"wall_sec": 1.0}, source="bench-kernels")
    rc = cli_main(["obs", "trend", "--history", str(history), "--check"])
    assert rc == 0  # one entry: nothing to compare, not a failure
