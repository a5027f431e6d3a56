"""Cross-process telemetry shipping: spool files, merge, watchdog.

Multi-process runs (the matrix runner's ``ProcessPoolExecutor``, the GA's
``multiprocessing.Pool``) used to lose everything a worker measured: its
metrics registry, its span tree and its kernel compile counts died with
the process.  This module ships them to the parent through a **spool
directory**:

* Each worker owns one snapshot file, ``worker-<id>.json``, holding the
  *cumulative* state of its registry/recorder.  Every publish atomically
  replaces the file (temp + ``os.replace``), so the parent never reads a
  torn snapshot and a crashed worker leaves its last complete one behind
  — shipping is crash-tolerant by construction.
* Each worker also touches a tiny heartbeat file, ``hb-<id>.json``, at
  the *start* of every job, so liveness is visible even mid-job.
* The parent merges snapshots with :func:`merge_spool`: counters and
  histograms **sum** across workers, gauges sum too (worker gauges are
  per-process totals like kernel compiles, for which the fleet-wide sum
  is the meaningful aggregate).  The merged registry therefore equals
  the sum of the worker deltas — nothing is silently lost.
* A parent-side :class:`Watchdog` compares heartbeat ages against a
  multiple of the median job time and flags stalled workers as a
  warning (log + counter) instead of letting the run hang silently.

Unreadable spool files (torn JSON from a worker killed mid-``os.replace``
on exotic filesystems, stray ``.tmp`` files, schema mismatches) and
snapshots whose metrics or spans fail :func:`merge_spool`'s checks are
counted in ``SpoolState.corrupt`` and skipped — a crashed worker must
never take the parent's telemetry down with it.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from .metrics import Histogram, MetricsRegistry, _freeze_labels
from .spans import SPAN_SCHEMA, SpanRecorder

__all__ = [
    "SPOOL_SCHEMA",
    "SpoolState",
    "SpoolWriter",
    "Watchdog",
    "merge_registry_payload",
    "merge_spool",
    "read_spool",
]

logger = logging.getLogger(__name__)

#: Bump when the spool payload layout changes (/2: histograms carry
#: sparse ``counts`` plus ``min``/``max``).
SPOOL_SCHEMA = "repro-spool/2"


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    os.replace(tmp, path)


class SpoolWriter:
    """Worker-side publisher of metrics/span snapshots and heartbeats.

    Parameters
    ----------
    spool_dir:
        Directory shared with the parent (created if missing).
    worker_id:
        Stable identity for this worker's files; defaults to ``w<pid>``.
    min_interval:
        Throttle for :meth:`publish` (``force=True`` bypasses it).  The
        GA publishes per evaluation with a throttle; the matrix runner
        publishes per job unthrottled (jobs are much coarser).
    """

    def __init__(
        self,
        spool_dir: Union[str, Path],
        worker_id: Optional[str] = None,
        min_interval: float = 0.0,
    ):
        self.root = Path(spool_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.min_interval = min_interval
        self.publishes = 0
        self.heartbeats = 0
        self._last_publish = 0.0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> Path:
        return self.root / f"worker-{self.worker_id}.json"

    @property
    def heartbeat_path(self) -> Path:
        return self.root / f"hb-{self.worker_id}.json"

    # ------------------------------------------------------------------
    def heartbeat(self, job: Optional[object] = None) -> None:
        """Record liveness *now* (called at job start; cheap, atomic).

        Never raises: a full disk must not kill the job itself.
        """
        payload = {
            "schema": SPOOL_SCHEMA,
            "kind": "heartbeat",
            "worker": self.worker_id,
            "pid": os.getpid(),
            "ts": time.time(),
            "job": job,
        }
        try:
            _atomic_write_json(self.heartbeat_path, payload)
            self.heartbeats += 1
        except OSError as exc:  # pragma: no cover - unwritable spool
            logger.warning("heartbeat write failed: %s", exc)

    def publish(
        self,
        registry: Optional[MetricsRegistry] = None,
        recorder: Optional[SpanRecorder] = None,
        jobs_done: Optional[int] = None,
        force: bool = True,
    ) -> bool:
        """Atomically replace this worker's cumulative snapshot.

        Returns whether a write happened (throttled calls return False).
        Never raises on I/O errors.
        """
        now = time.monotonic()
        with self._lock:
            if not force and now - self._last_publish < self.min_interval:
                return False
            self._last_publish = now
        payload = {
            "schema": SPOOL_SCHEMA,
            "kind": "snapshot",
            "worker": self.worker_id,
            "pid": os.getpid(),
            "ts": time.time(),
            "jobs_done": jobs_done,
            "metrics": registry.to_json() if registry is not None else None,
            "spans": recorder.payload() if recorder is not None else None,
        }
        try:
            _atomic_write_json(self.snapshot_path, payload)
        except OSError as exc:  # pragma: no cover - unwritable spool
            logger.warning("spool publish failed: %s", exc)
            return False
        self.publishes += 1
        return True


# ----------------------------------------------------------------------
# Parent side: read + merge.
# ----------------------------------------------------------------------
class SpoolState:
    """Everything the parent learned from one spool scan."""

    def __init__(self):
        self.snapshots: Dict[str, dict] = {}
        self.heartbeats: Dict[str, float] = {}
        self.corrupt = 0
        self.merged_records = 0

    @property
    def workers(self) -> List[str]:
        return sorted(set(self.snapshots) | set(self.heartbeats))

    def worker_pids(self) -> List[int]:
        return sorted({
            s["pid"] for s in self.snapshots.values() if "pid" in s
        })

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SpoolState({len(self.snapshots)} snapshots, "
                f"{len(self.heartbeats)} heartbeats, corrupt={self.corrupt})")


def _load_json(path: Path) -> Optional[dict]:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("schema") != SPOOL_SCHEMA:
        return None
    return payload


def read_spool(spool_dir: Union[str, Path]) -> SpoolState:
    """Scan a spool directory; skip (and count) unreadable files."""
    state = SpoolState()
    root = Path(spool_dir)
    if not root.is_dir():
        return state
    for path in sorted(root.glob("worker-*.json")):
        payload = _load_json(path)
        if payload is None or payload.get("kind") != "snapshot":
            state.corrupt += 1
            continue
        state.snapshots[str(payload.get("worker", path.stem))] = payload
    for path in sorted(root.glob("hb-*.json")):
        payload = _load_json(path)
        if payload is None or payload.get("kind") != "heartbeat":
            state.corrupt += 1
            continue
        worker = str(payload.get("worker", path.stem))
        state.heartbeats[worker] = float(payload.get("ts", 0.0))
    # A snapshot is also proof of life at its write time.
    for worker, snapshot in state.snapshots.items():
        ts = float(snapshot.get("ts", 0.0))
        state.heartbeats[worker] = max(state.heartbeats.get(worker, 0.0), ts)
    return state


def _decode_registry_payload(
    registry: MetricsRegistry, payload: dict
) -> List[tuple]:
    """Every series of one snapshot as ``(kind, name, help, labels, value)``.

    Checks the whole payload against ``registry`` without changing it:
    an unknown type, a negative counter, a malformed histogram, a name
    registered as another kind, or a histogram whose layout differs from
    the instrument it would merge into raises before anything is merged.
    """
    present = {(name, labels): instrument
               for name, labels, instrument in registry.instruments()}
    kinds = {name: instrument.kind for (name, _), instrument in present.items()}
    decoded = []
    for name, entry in payload.items():
        kind = entry.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown instrument type {kind!r} for {name!r}")
        full = registry._full_name(name)
        if kinds.setdefault(full, kind) != kind:
            raise ValueError(f"metric {full!r} already registered as {kinds[full]}")
        for series in entry.get("series", ()):
            labels = dict(series.get("labels") or {})
            value = series.get("value")
            if kind == "counter":
                value = int(value)
                if value < 0:
                    raise ValueError(f"counter {name!r}: negative value {value}")
            elif kind == "gauge":
                value = float(value)
            else:
                value = Histogram.from_json(value)
                if value.bounds is None:
                    raise ValueError(f"histogram {name!r} has no bounds")
                key = (full, _freeze_labels(labels))
                layout = present.setdefault(key, value).layout
                if layout != value.layout:
                    raise ValueError(
                        f"histogram {name!r}: layout {value.layout} != {layout}"
                    )
            decoded.append((kind, name, entry.get("help", ""), labels or None,
                            value))
    return decoded


def merge_registry_payload(
    registry: MetricsRegistry, payload: dict
) -> int:
    """Fold one ``MetricsRegistry.to_json()`` snapshot into ``registry``.

    Counters/gauges add their values; histograms merge their
    :meth:`~repro.obs.metrics.Histogram.as_json` form.  The whole payload
    is decoded and checked first, so a malformed one raises and leaves
    ``registry`` untouched.  Returns the number of series merged.
    Instrument names keep the worker's fully qualified name, so a
    namespaced parent registry merges flat worker names unchanged.
    """
    decoded = _decode_registry_payload(registry, payload)
    for kind, name, help_text, labels, value in decoded:
        if kind == "counter":
            registry.counter(name, help_text, labels).inc(value)
        elif kind == "gauge":
            registry.gauge(name, help_text, labels).inc(value)
        else:
            registry.histogram(name, value.bounds, help_text, labels).merge(value)
    return len(decoded)


def merge_spool(
    spool_dir: Union[str, Path],
    registry: Optional[MetricsRegistry] = None,
    recorder: Optional[SpanRecorder] = None,
) -> SpoolState:
    """Read a spool and merge every snapshot into ``registry``/``recorder``.

    Safe to call once per run: snapshots are cumulative per worker, so a
    single merge of each worker's latest file yields exact totals.  A
    snapshot whose span schema is foreign or whose metrics payload fails
    :func:`merge_registry_payload`'s checks merges nothing: it is dropped
    from ``state.snapshots`` and counted in ``state.corrupt``.
    """
    state = read_spool(spool_dir)
    for worker, snapshot in list(state.snapshots.items()):
        metrics = snapshot.get("metrics") if registry is not None else None
        spans = snapshot.get("spans") if recorder is not None else None
        try:
            if spans and spans.get("schema") != SPAN_SCHEMA:
                raise ValueError(f"span schema {spans.get('schema')!r}")
            if metrics:
                merge_registry_payload(registry, metrics)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            logger.warning("skipping worker %s snapshot: %s", worker, exc)
            del state.snapshots[worker]
            state.corrupt += 1
            continue
        if spans:
            state.merged_records += recorder.merge_payload(spans)
    return state


# ----------------------------------------------------------------------
# Watchdog.
# ----------------------------------------------------------------------
class Watchdog:
    """Flags workers whose heartbeat is older than N× the median job time.

    ``check`` is cheap and idempotent: a worker is warned about once per
    stall (log + ``repro_shipping_stalled_workers_total`` counter) and
    un-flagged if its heartbeat recovers, so a slow-but-alive worker that
    catches up stops being reported.
    """

    def __init__(
        self,
        factor: float = 10.0,
        floor_sec: float = 5.0,
        registry: Optional[MetricsRegistry] = None,
    ):
        if factor <= 0 or floor_sec <= 0:
            raise ValueError("watchdog factor and floor must be positive")
        self.factor = factor
        self.floor_sec = floor_sec
        self.flagged: Dict[str, float] = {}
        self._stalls = None
        if registry is not None:
            self._stalls = registry.counter(
                "repro_shipping_stalled_workers_total",
                "Workers flagged by the heartbeat watchdog",
            )

    def threshold(self, median_job_sec: float) -> float:
        return max(self.floor_sec, self.factor * max(0.0, median_job_sec))

    def check(
        self,
        heartbeats: Dict[str, float],
        median_job_sec: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Return the workers that just *became* stalled (new flags only)."""
        now = time.time() if now is None else now
        limit = self.threshold(median_job_sec)
        newly: List[str] = []
        for worker, last_seen in heartbeats.items():
            age = now - last_seen
            if age > limit:
                if worker not in self.flagged:
                    self.flagged[worker] = last_seen
                    newly.append(worker)
                    if self._stalls is not None:
                        self._stalls.inc()
                    logger.warning(
                        "worker %s stalled: no heartbeat for %.1fs "
                        "(threshold %.1fs = max(%.1f, %.1fx median job %.2fs))",
                        worker, age, limit, self.floor_sec, self.factor,
                        median_job_sec,
                    )
            elif worker in self.flagged:
                del self.flagged[worker]
                logger.info("worker %s recovered (heartbeat %.1fs ago)",
                            worker, age)
        return newly
