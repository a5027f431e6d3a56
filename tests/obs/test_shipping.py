"""Cross-process telemetry spool: publish/read/merge + watchdog."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.shipping import (
    SPOOL_SCHEMA,
    SpoolWriter,
    Watchdog,
    merge_registry_payload,
    merge_spool,
    read_spool,
)
from repro.obs.spans import SpanRecorder


def _registry_with(jobs=3, seconds=1.5, bounds=(1.0, 2.0)):
    reg = MetricsRegistry()
    reg.counter("repro_worker_jobs_total").inc(jobs)
    reg.gauge("repro_worker_sim_seconds_total").inc(seconds)
    hist = reg.histogram("repro_job_seconds", bounds)
    hist.observe(0.5)
    hist.observe(1.5)
    return reg


# ----------------------------------------------------------------------
# Writer / reader roundtrip.
# ----------------------------------------------------------------------
def test_publish_read_roundtrip(tmp_path):
    writer = SpoolWriter(tmp_path, worker_id="w1")
    assert writer.publish(registry=_registry_with(), jobs_done=3)
    writer.heartbeat(job="462.libquantum/dgippr")

    state = read_spool(tmp_path)
    assert state.workers == ["w1"]
    assert state.corrupt == 0
    snap = state.snapshots["w1"]
    assert snap["schema"] == SPOOL_SCHEMA
    assert snap["jobs_done"] == 3
    assert "w1" in state.heartbeats and state.heartbeats["w1"] > 0


def test_publish_throttles_but_force_bypasses(tmp_path):
    writer = SpoolWriter(tmp_path, worker_id="w1", min_interval=60.0)
    assert writer.publish(force=True)
    assert not writer.publish(force=False)  # inside the throttle window
    assert writer.publish(force=True)  # force always writes
    assert writer.publishes == 2


def test_snapshot_counts_as_heartbeat(tmp_path):
    """A snapshot write is proof of life even without an hb file."""
    SpoolWriter(tmp_path, worker_id="w9").publish(jobs_done=1)
    state = read_spool(tmp_path)
    assert "w9" in state.heartbeats
    assert state.heartbeats["w9"] > 0


def test_read_spool_missing_dir_is_empty(tmp_path):
    state = read_spool(tmp_path / "never-created")
    assert state.workers == []
    assert state.corrupt == 0


# ----------------------------------------------------------------------
# Crashed-worker tolerance: torn JSON and stray tmp files are skipped.
# ----------------------------------------------------------------------
def test_torn_and_alien_files_counted_not_fatal(tmp_path):
    SpoolWriter(tmp_path, worker_id="good").publish(
        registry=_registry_with(jobs=2), jobs_done=2
    )
    # A worker killed mid-write: truncated JSON under a snapshot name.
    (tmp_path / "worker-crashed.json").write_text('{"schema": "repro-spo')
    # Wrong schema entirely.
    (tmp_path / "worker-alien.json").write_text('{"schema": "other/1"}')
    # Torn heartbeat.
    (tmp_path / "hb-crashed.json").write_text("{")
    # A stray .tmp from an interrupted atomic write is not scanned at all.
    (tmp_path / ".worker-crashed.json.123.tmp").write_text("junk")

    state = read_spool(tmp_path)
    assert state.workers == ["good"]
    assert state.corrupt == 3  # two bad snapshots + one bad heartbeat

    # And the merge over the same dir still yields the good worker's data.
    parent = MetricsRegistry()
    merged_state = merge_spool(tmp_path, registry=parent)
    assert merged_state.corrupt == 3
    assert parent.counter("repro_worker_jobs_total").value == 2


def _job_histogram(payload):
    return payload["metrics"]["repro_job_seconds"]["series"][0]["value"]


def _malformed_snapshot(tmp_path, worker, mutate):
    """Spool a good snapshot for ``worker``, then apply ``mutate`` to it."""
    SpoolWriter(tmp_path, worker_id=worker).publish(
        registry=_registry_with(jobs=5), recorder=SpanRecorder(), jobs_done=5
    )
    path = tmp_path / f"worker-{worker}.json"
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("mutate", [
    lambda p: _job_histogram(p)["counts"].update({"-1": 1}),
    lambda p: _job_histogram(p).update(bounds=[1.0, 2.0, 3.0]),
    lambda p: p["spans"].update(schema="repro-spans/0"),
], ids=["bucket-index-minus-one", "bounds-mismatch", "foreign-span-schema"])
def test_bad_snapshot_skipped_parent_untouched(tmp_path, mutate):
    """A readable but bad snapshot merges none of its series or spans.

    The counter and gauge come before the histogram in the payload, and
    metrics merge before spans, so a merge that checked series by series
    would leave them half merged.
    """
    _malformed_snapshot(tmp_path, "w1", mutate)
    parent = _registry_with(jobs=3)
    before = parent.to_json()
    recorder = SpanRecorder(process_label="parent")

    state = merge_spool(tmp_path, registry=parent, recorder=recorder)

    assert state.corrupt == 1
    assert "w1" not in state.snapshots
    assert parent.to_json() == before
    assert recorder.records == []


def test_bad_snapshot_does_not_block_good_workers(tmp_path):
    SpoolWriter(tmp_path, worker_id="good").publish(
        registry=_registry_with(jobs=2), jobs_done=2
    )
    _malformed_snapshot(
        tmp_path, "bad",
        lambda p: _job_histogram(p)["counts"].update({"-1": 1}),
    )
    parent = MetricsRegistry()
    state = merge_spool(tmp_path, registry=parent)
    assert state.corrupt == 1
    assert sorted(state.snapshots) == ["good"]
    assert parent.counter("repro_worker_jobs_total").value == 2
    assert parent.histogram("repro_job_seconds", (1.0, 2.0)).count == 2


# ----------------------------------------------------------------------
# Merge arithmetic: parent totals == sum of worker deltas.
# ----------------------------------------------------------------------
def test_merge_spool_sums_counters_gauges_histograms(tmp_path):
    for i, (jobs, secs) in enumerate([(3, 1.5), (5, 2.25)]):
        SpoolWriter(tmp_path, worker_id=f"w{i}").publish(
            registry=_registry_with(jobs=jobs, seconds=secs), jobs_done=jobs
        )

    parent = MetricsRegistry()
    recorder = SpanRecorder(process_label="parent")
    state = merge_spool(tmp_path, registry=parent, recorder=recorder)

    assert sorted(state.snapshots) == ["w0", "w1"]
    assert parent.counter("repro_worker_jobs_total").value == 8
    assert parent.gauge("repro_worker_sim_seconds_total").value == (
        pytest.approx(3.75)
    )
    hist = parent.histogram("repro_job_seconds", (1.0, 2.0))
    assert hist.count == 4  # 2 observations per worker
    assert hist.sum == pytest.approx(2 * (0.5 + 1.5))


def test_merge_spool_merges_worker_spans(tmp_path):
    worker_rec = SpanRecorder(process_label="worker")
    worker_rec._pid = 4242
    worker_rec.record(name="job.simulate", path="job.simulate", ts_us=0,
                      dur_us=10.0, self_us=10.0, args={})
    SpoolWriter(tmp_path, worker_id="w0").publish(recorder=worker_rec)

    parent = SpanRecorder(process_label="parent")
    state = merge_spool(tmp_path, recorder=parent)
    assert state.merged_records == 1
    assert 4242 in parent.pids()


def test_merge_cumulative_snapshot_replaced_not_double_counted(tmp_path):
    """Snapshots are cumulative: only the latest per worker is merged."""
    writer = SpoolWriter(tmp_path, worker_id="w0")
    writer.publish(registry=_registry_with(jobs=3), jobs_done=3)
    writer.publish(registry=_registry_with(jobs=7), jobs_done=7)  # replaces

    parent = MetricsRegistry()
    merge_spool(tmp_path, registry=parent)
    assert parent.counter("repro_worker_jobs_total").value == 7


def test_merge_registry_payload_rejects_unknown_type():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        merge_registry_payload(reg, {
            "bogus": {"type": "summary", "series": [{"value": 1}]},
        })


def test_registry_payload_json_roundtrip(tmp_path):
    """to_json survives an actual JSON serialization hop (the spool)."""
    payload = json.loads(json.dumps(_registry_with().to_json()))
    parent = MetricsRegistry()
    assert merge_registry_payload(parent, payload) == 3
    assert parent.counter("repro_worker_jobs_total").value == 3


# ----------------------------------------------------------------------
# Watchdog.
# ----------------------------------------------------------------------
def test_watchdog_threshold_has_floor():
    dog = Watchdog(factor=10.0, floor_sec=5.0)
    assert dog.threshold(0.0) == 5.0  # no jobs yet: floor applies
    assert dog.threshold(2.0) == 20.0


def test_watchdog_flags_once_and_recovers():
    registry = MetricsRegistry()
    dog = Watchdog(factor=10.0, floor_sec=5.0, registry=registry)
    now = 1000.0
    beats = {"w0": now - 1.0, "w1": now - 30.0}

    newly = dog.check(beats, median_job_sec=1.0, now=now)
    assert newly == ["w1"]
    assert set(dog.flagged) == {"w1"}

    # Idempotent: still stalled, but not re-reported or re-counted.
    assert dog.check(beats, median_job_sec=1.0, now=now + 1.0) == []
    stalls = registry.counter("repro_shipping_stalled_workers_total")
    assert stalls.value == 1

    # Recovery unflags.
    beats["w1"] = now + 2.0
    assert dog.check(beats, median_job_sec=1.0, now=now + 3.0) == []
    assert dog.flagged == {}

    # A second genuine stall is a second event.
    beats["w1"] = now - 100.0
    assert dog.check(beats, median_job_sec=1.0, now=now + 4.0) == ["w1"]
    assert stalls.value == 2


def test_watchdog_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        Watchdog(factor=0)
    with pytest.raises(ValueError):
        Watchdog(floor_sec=-1.0)
