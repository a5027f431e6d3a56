"""Unit tests for :mod:`repro.obs.windows`.

SlidingWindows: exact boundary splits (including a boundary pinned on a
flash-phase edge), empty/single-access windows, shed accounting, flush.
DriftDetector: warm baseline, CUSUM firing on sustained shifts, silence
on noise, re-warm after an event.
"""

import random

import pytest

from repro.obs.windows import (
    DEFAULT_DRIFT_SERIES,
    DriftDetector,
    SlidingWindows,
)
from repro.serve.workload import ServingSpec, ServingStream, auto_flash_phases


class TestSlidingWindows:
    def test_validation(self):
        with pytest.raises(ValueError, match="window_accesses"):
            SlidingWindows(0)
        with pytest.raises(ValueError, match="max_windows"):
            SlidingWindows(10, max_windows=0)
        w = SlidingWindows(10)
        with pytest.raises(ValueError, match="non-negative"):
            w.record(-1, 0)
        with pytest.raises(ValueError, match="hits"):
            w.record(5, 6)
        with pytest.raises(ValueError, match="wall_sec"):
            w.record(5, 1, wall_sec=-0.1)

    def test_exact_close_on_boundary(self):
        w = SlidingWindows(100)
        closed = w.record(100, 40, wall_sec=0.5)
        assert len(closed) == 1
        win = closed[0]
        assert win["index"] == 0
        assert (win["start_access"], win["end_access"]) == (0, 100)
        assert win["accesses"] == 100 and win["hits"] == 40
        assert win["hit_rate"] == pytest.approx(0.4)
        assert win["throughput"] == pytest.approx(200.0)
        assert w.open_offered == 0

    def test_straddling_batch_splits_hits_proportionally(self):
        w = SlidingWindows(100)
        closed = w.record(250, 200)
        assert len(closed) == 2
        assert [c["hit_rate"] for c in closed] == [0.8, 0.8]
        assert sum(c["hits"] for c in closed) + w._hits == 200
        assert w.open_offered == 50

    def test_split_conserves_counts_exactly(self):
        rng = random.Random(3)
        w = SlidingWindows(97)     # awkward size to force many splits
        total_acc = total_hits = total_shed = 0
        closed = []
        for _ in range(200):
            acc = rng.randrange(0, 300)
            hits = rng.randrange(0, acc + 1) if acc else 0
            shed = rng.randrange(0, 50)
            total_acc += acc
            total_hits += hits
            total_shed += shed
            closed.extend(w.record(acc, hits, shed=shed))
        tail = w.flush()
        if tail:
            closed.append(tail)
        assert sum(c["accesses"] for c in closed) == total_acc
        assert sum(c["hits"] for c in closed) == total_hits
        assert sum(c["shed"] for c in closed) == total_shed
        for c in closed:
            assert 0 <= c["hits"] <= c["accesses"]
        # end/start offsets chain without gaps
        for prev, nxt in zip(closed, closed[1:]):
            assert prev["end_access"] == nxt["start_access"]

    def test_empty_window_all_shed(self):
        # Offered load counts shed, so a fully-shedding system still
        # closes windows; hit_rate is None (no serviced accesses) while
        # shed_ratio is 1.0.
        w = SlidingWindows(10)
        closed = w.record(0, 0, shed=10)
        assert len(closed) == 1
        assert closed[0]["accesses"] == 0
        assert closed[0]["hit_rate"] is None
        assert closed[0]["shed_ratio"] == 1.0
        assert closed[0]["throughput"] is None

    def test_single_access_windows(self):
        w = SlidingWindows(1)
        closed = w.record(3, 2)
        assert len(closed) == 3
        assert [c["accesses"] for c in closed] == [1, 1, 1]
        assert sum(c["hits"] for c in closed) == 2
        assert [c["hit_rate"] for c in closed] in (
            [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0],
        )

    def test_zero_delta_is_noop(self):
        w = SlidingWindows(10)
        assert w.record(0, 0) == []
        assert w.open_offered == 0
        assert w.flush() is None

    def test_boundary_on_flash_phase_edge(self):
        # Pin a window boundary exactly on a flash-crowd phase edge and
        # check windows on either side see the regime change: feed the
        # stream in whole-window batches so window k covers accesses
        # [k*W, (k+1)*W) -- phase start 3*W lands exactly on a boundary.
        W = 4096
        accesses = 8 * W
        phases = auto_flash_phases(accesses, 1, share=0.9, hot_keys=4)
        phase = phases[0]
        start = 3 * W
        phase = type(phase)(start=start, length=phase.length,
                            share=phase.share, hot_keys=phase.hot_keys)
        spec = ServingSpec(keys=1 << 14, alpha=1.01, accesses=accesses,
                           phases=(phase,), seed=5)
        stream = ServingStream(spec)
        addrs = []
        for chunk in stream.chunks(W):
            addrs.extend(int(a) for a in chunk)
        w = SlidingWindows(W)
        hot = {a % (1 << 14) for a in addrs[start:start + 64]}
        closed = []
        for lo in range(0, accesses, W):
            batch = addrs[lo:lo + W]
            hits = sum(1 for a in batch if a % (1 << 14) in hot)
            closed.extend(w.record(len(batch), hits))
        assert w.open_offered == 0
        assert len(closed) == 8
        assert closed[3]["start_access"] == start == phase.start
        # Inside the flash phase the hot working set dominates.
        inside = closed[3]["hit_rate"]
        before = closed[2]["hit_rate"]
        assert inside > before

    def test_max_windows_retention(self):
        w = SlidingWindows(1, max_windows=4)
        w.record(10, 0)
        assert len(w.closed) == 4
        assert w.windows_closed == 10
        assert [c["index"] for c in w.closed] == [6, 7, 8, 9]

    def test_wall_split_by_offered_fraction(self):
        w = SlidingWindows(100)
        closed = w.record(200, 0, wall_sec=1.0)
        assert len(closed) == 2
        assert closed[0]["wall_sec"] == pytest.approx(0.5)
        assert closed[1]["wall_sec"] == pytest.approx(0.5)


def mk_window(index, **values):
    return dict({"index": index, "end_access": (index + 1) * 1000}, **values)


class TestDriftDetector:
    def test_validation(self):
        with pytest.raises(ValueError, match="warmup_windows"):
            DriftDetector(warmup_windows=0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            DriftDetector(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="direction"):
            DriftDetector(series={"x": {"direction": "sideways"}})

    def test_fires_on_hit_rate_collapse(self):
        det = DriftDetector(warmup_windows=3)
        fired = []
        for i in range(3):
            fired += det.observe(mk_window(i, hit_rate=0.9))
        assert det.state()["hit_rate"]["warmed"] is True
        for i in range(3, 8):
            fired += det.observe(mk_window(i, hit_rate=0.5))
        assert len(fired) == 1
        event = fired[0]
        assert event["kind"] == "drift"
        assert event["series"] == "hit_rate"
        assert event["direction"] == "down"
        assert event["baseline"] == pytest.approx(0.9)
        assert event["value"] == 0.5
        # Re-warms after firing on post-change data: the 0.5 regime is
        # the new baseline, and the same shift never fires twice.
        state = det.state()["hit_rate"]
        assert state["warmed"] is True
        assert state["baseline"] == pytest.approx(0.5)

    def test_rewarm_adopts_new_regime(self):
        det = DriftDetector(warmup_windows=2)
        seq = [0.9, 0.9] + [0.4] * 6          # shift fires, then re-warm
        fired = []
        for i, v in enumerate(seq):
            fired += det.observe(mk_window(i, hit_rate=v))
        assert len(fired) == 1
        # Staying at the new 0.4 level is the new normal: quiet.
        for i in range(len(seq), len(seq) + 6):
            fired += det.observe(mk_window(i, hit_rate=0.4))
        assert len(fired) == 1

    def test_quiet_on_stationary_noise(self):
        rng = random.Random(17)
        det = DriftDetector(warmup_windows=5)
        fired = []
        for i in range(60):
            hit = 0.85 + rng.uniform(-0.015, 0.015)
            tp = 1e6 * (1 + rng.uniform(-0.05, 0.05))
            fired += det.observe(mk_window(i, hit_rate=hit, throughput=tp))
        assert fired == []

    def test_none_values_skip_series(self):
        det = DriftDetector(warmup_windows=2)
        for i in range(10):
            assert det.observe(mk_window(i, hit_rate=None)) == []
        assert det.state()["hit_rate"]["warmed"] is False

    def test_upward_direction(self):
        det = DriftDetector(
            series={"queue_depth": {"direction": "up", "delta": 0.1,
                                    "threshold": 0.5, "min_delta": 1.0,
                                    "min_threshold": 5.0}},
            warmup_windows=2,
        )
        fired = []
        for i in range(2):
            fired += det.observe(mk_window(i, queue_depth=2))
        for i in range(2, 8):
            fired += det.observe(mk_window(i, queue_depth=10))
        assert len(fired) == 1
        assert fired[0]["direction"] == "up"

    def test_default_series_cover_serving_signals(self):
        assert set(DEFAULT_DRIFT_SERIES) == {"hit_rate", "throughput"}
        for cfg in DEFAULT_DRIFT_SERIES.values():
            assert cfg["direction"] == "down"
