"""Live run status: publisher semantics, reader tolerance, renderer, watch."""

import io
import json
import time

from repro.obs.status import (
    STATUS_SCHEMA,
    StatusPublisher,
    read_status,
    render_status,
    watch,
)


def _publisher(tmp_path, **kwargs):
    kwargs.setdefault("kind", "test")
    return StatusPublisher(tmp_path / "run-status.json", **kwargs)


# ----------------------------------------------------------------------
# Publisher.
# ----------------------------------------------------------------------
def test_update_merges_fields_over_previous_state(tmp_path):
    pub = _publisher(tmp_path, min_interval=0.0)
    pub.update(phase="simulate", jobs_done=1, jobs_total=10)
    pub.update(jobs_done=5)  # phase not repeated: must persist

    status = read_status(pub.path)
    assert status["phase"] == "simulate"
    assert status["jobs_done"] == 5
    assert status["jobs_total"] == 10
    assert status["schema"] == STATUS_SCHEMA
    assert status["final"] is False


def test_throttle_skips_writes_force_bypasses(tmp_path):
    pub = _publisher(tmp_path, min_interval=60.0)
    assert pub.update(force=True, phase="a")
    assert not pub.update(phase="b")  # throttled: no write...
    assert read_status(pub.path)["phase"] == "a"
    assert pub.update(force=True)  # ...but the merged state is not lost
    assert read_status(pub.path)["phase"] == "b"
    assert pub.writes == 2


def test_finalize_survives_and_marks_final(tmp_path):
    pub = _publisher(tmp_path, min_interval=60.0)
    pub.update(force=True, phase="simulate", jobs_done=3, jobs_total=3)
    assert pub.finalize(phase="done", eta_sec=0.0)  # ignores the throttle

    status = read_status(pub.path)
    assert status["final"] is True
    assert status["phase"] == "done"
    assert status["finished_at"] >= status["started_at"]
    # The file stays on disk as the post-mortem record.
    assert pub.path.exists()


def test_unwritable_path_degrades_to_noop(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("")  # a *file* where the parent dir should be
    pub = StatusPublisher(target / "run-status.json", kind="test")
    assert not pub.update(force=True, phase="x")
    assert not pub.finalize()
    assert pub.writes == 0


# ----------------------------------------------------------------------
# Reader tolerance.
# ----------------------------------------------------------------------
def test_read_status_none_on_missing_torn_or_alien(tmp_path):
    assert read_status(tmp_path / "missing.json") is None

    torn = tmp_path / "torn.json"
    torn.write_text('{"schema": "repro-stat')
    assert read_status(torn) is None

    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"schema": "other/9", "phase": "x"}))
    assert read_status(alien) is None


# ----------------------------------------------------------------------
# Renderer.
# ----------------------------------------------------------------------
def test_render_status_shows_progress_and_workers(tmp_path):
    pub = _publisher(tmp_path, min_interval=0.0)
    pub.update(
        phase="simulate", jobs_done=6, jobs_total=12, throughput=3.5,
        throughput_unit="sims/s", eta_sec=90.0, cache_hit_rate=0.25,
        best_fitness=1.0625,
        workers={
            "w0": {"alive": True, "stalled": False},
            "w1": {"alive": False, "stalled": True},
        },
    )
    text = render_status(read_status(pub.path))
    assert "phase: simulate" in text
    assert "6/12 (50%)" in text
    assert "3.50 sims/s" in text
    assert "1m30s" in text  # formatted ETA
    assert "25% hit rate" in text
    assert "1.0625 fitness so far" in text
    assert "1/2 alive, STALLED: w1" in text
    assert "FINISHED" not in text


def test_render_final_status_hides_eta_marks_finished(tmp_path):
    pub = _publisher(tmp_path)
    pub.finalize(phase="done", eta_sec=0.0, jobs_done=3, jobs_total=3)
    text = render_status(read_status(pub.path))
    assert "[FINISHED]" in text
    assert "eta" not in text


def test_render_flags_stale_running_status(tmp_path):
    pub = _publisher(tmp_path, min_interval=0.0)
    pub.update(phase="simulate")
    status = read_status(pub.path)
    assert "stale?" in render_status(status, now=status["updated_at"] + 120)
    assert "stale?" not in render_status(status, now=status["updated_at"] + 1)


# ----------------------------------------------------------------------
# Watch loop (bounded-iteration mode — the `--once` CLI backend).
# ----------------------------------------------------------------------
def test_watch_returns_zero_on_final_status(tmp_path):
    pub = _publisher(tmp_path)
    pub.finalize(phase="done")
    out = io.StringIO()
    assert watch(pub.path, interval=0.0, iterations=3, stream=out) == 0
    assert "[FINISHED]" in out.getvalue()


def test_watch_returns_one_on_failed_final_status(tmp_path):
    pub = _publisher(tmp_path)
    pub.update(force=True, phase="simulate")
    pub.fail(RuntimeError("worker died"))
    status = read_status(pub.path)
    assert status["final"] is True
    assert status["phase"] == "failed"
    assert status["error"] == "RuntimeError: worker died"
    out = io.StringIO()
    assert watch(pub.path, interval=0.0, iterations=3, stream=out) == 1
    assert "[FINISHED]  phase: failed" in out.getvalue()
    assert "error     RuntimeError: worker died" in out.getvalue()


def test_watch_returns_one_when_file_never_appears(tmp_path):
    out = io.StringIO()
    rc = watch(tmp_path / "nope.json", interval=0.0, iterations=2, stream=out)
    assert rc == 1
    assert "waiting for" in out.getvalue()


def test_watch_nonfinal_bounded_iterations_returns_zero(tmp_path):
    pub = _publisher(tmp_path, min_interval=0.0)
    pub.update(phase="simulate", jobs_done=1, jobs_total=4)
    out = io.StringIO()
    assert watch(pub.path, interval=0.0, iterations=1, stream=out) == 0
    assert "phase: simulate" in out.getvalue()


def test_watch_survives_truncation_mid_loop(tmp_path, monkeypatch):
    # A writer replacing the file can race the reader; simulate the torn
    # state by truncating the snapshot to half a JSON document between
    # watch iterations (hooked through time.sleep).  The last good
    # snapshot must stay on screen under a "stale since" banner, and the
    # exit code stays 0 because a good state *was* seen.
    pub = _publisher(tmp_path, min_interval=0.0)
    pub.update(phase="serving", jobs_done=2, jobs_total=8)
    good = pub.path.read_text()

    calls = []

    def chaos_sleep(delay):
        calls.append(delay)
        if len(calls) == 1:
            pub.path.write_text(good[: len(good) // 2])  # torn write
        elif len(calls) == 3:
            pub.path.write_text(good)  # writer finishes; file heals

    monkeypatch.setattr(time, "sleep", chaos_sleep)
    out = io.StringIO()
    assert watch(pub.path, interval=0.01, iterations=5, stream=out,
                 max_interval=0.08) == 0
    text = out.getvalue()
    assert "phase: serving" in text            # last good state re-rendered
    assert "stale since" in text
    assert "retrying every" in text
    # Backoff doubled while unreadable, then reset on the good read.
    assert calls[0] == 0.01                    # good read
    assert calls[1] == 0.02 and calls[2] == 0.04   # torn: 2x backoff
    assert calls[3] == 0.01                    # healed: reset
    # The banner is gone from the final (healed) rendering.
    assert text.rstrip().endswith("ago")


def test_watch_torn_file_never_healing_returns_one(tmp_path, monkeypatch):
    torn = tmp_path / "run-status.json"
    torn.write_text('{"schema": "repro-stat')
    monkeypatch.setattr(time, "sleep", lambda _d: None)
    out = io.StringIO()
    assert watch(torn, interval=0.0, iterations=3, stream=out) == 1
    assert "waiting for" in out.getvalue()


# ----------------------------------------------------------------------
# A serving run's latency and shard rows.
# ----------------------------------------------------------------------
def serving_status(**overrides):
    status = {
        "schema": STATUS_SCHEMA,
        "kind": "serve",
        "run_id": "serve-1",
        "phase": "serving",
        "final": False,
        "started_at": 100.0,
        "updated_at": 101.0,
        "serving": {
            "latency": {"p50": 2e-7, "p90": 3e-7, "p99": 9e-7,
                        "p99_9": 4e-6},
            "shards": [
                {"shard": 0, "batches": 10, "p99": 1.5e-3,
                 "queue_depth": 0},
                {"shard": 1, "batches": 9, "p99": 1.2e-3,
                 "queue_depth": 2},
            ],
        },
    }
    status["serving"].update(overrides)
    return status


def test_render_status_shows_serving_rows():
    text = render_status(serving_status(), now=102.0)
    assert "p99 900ns" in text
    assert "0: p99 1.50ms q0 | 1: p99 1.20ms q2" in text
    rows = [line.split()[0] for line in text.splitlines()[1:]]
    assert "latency" in rows and "shards" in rows
    for gone in ("window", "drift", "slo", "scrape"):
        assert gone not in rows


def test_render_status_omits_serving_rows_without_section():
    status = serving_status()
    del status["serving"]
    rows = [line.split()[0]
            for line in render_status(status, now=102.0).splitlines()[1:]]
    assert rows == ["elapsed", "updated"]


def test_watch_renders_serving_rows(tmp_path):
    pub = _publisher(tmp_path, min_interval=0.0, kind="serve")
    pub.finalize(phase="done", serving=serving_status()["serving"])
    out = io.StringIO()
    assert watch(pub.path, interval=0.0, iterations=1, stream=out) == 0
    assert "shards    0:" in out.getvalue()
