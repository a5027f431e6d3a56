"""Live run status: atomically published ``run-status.json`` + watcher.

Long runs (a 29-benchmark matrix, a 12-generation GA) used to be black
boxes: the only signals were a throttled stderr line in the launching
terminal and the eventual result.  A :class:`StatusPublisher` gives any
runner a tiny, atomically replaced JSON file describing the run *right
now* — phase, jobs done/total, throughput, ETA, cache hit rate, worker
liveness, best-fitness-so-far — which

* ``repro obs watch run-status.json`` renders as a refreshing terminal
  view from any other shell (or over NFS from any other machine), and
* survives completion: the final update is written with ``final: true``
  and stays on disk as a post-mortem record of how the run ended.

Writes are atomic (temp + ``os.replace``), throttled (default 0.2 s so a
fast job loop cannot turn the status file into an I/O hot spot), and
failure-tolerant (an unwritable status path logs a warning once and
degrades to a no-op — observability must never kill the run).
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Optional, Union

from .provenance import write_atomic

__all__ = [
    "STATUS_SCHEMA",
    "StatusPublisher",
    "read_status",
    "render_status",
    "watch",
]

logger = logging.getLogger(__name__)

#: Bump when the status payload layout changes.
STATUS_SCHEMA = "repro-status/1"

#: Environment variable runners consult for a default status path.
STATUS_PATH_ENV = "REPRO_STATUS_PATH"


def default_status_path() -> Optional[Path]:
    """``$REPRO_STATUS_PATH`` as a Path, or ``None`` (status disabled)."""
    env = os.environ.get(STATUS_PATH_ENV)
    return Path(env).expanduser() if env else None


class StatusPublisher:
    """Atomically publishes a run's live status to one JSON file.

    Fields passed to :meth:`update` are *merged* over the previous state,
    so runners can update throughput every job but the phase only on
    transitions.  ``finalize`` forces a write with ``final: true``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kind: str,
        run_id: Optional[str] = None,
        min_interval: float = 0.2,
    ):
        self.path = Path(path)
        self.min_interval = min_interval
        self.writes = 0
        self._warned = False
        self._last_write = 0.0
        self._state = {
            "schema": STATUS_SCHEMA,
            "kind": kind,
            "run_id": run_id or f"{kind}-{os.getpid()}-{int(time.time())}",
            "pid": os.getpid(),
            "started_at": time.time(),
            "updated_at": time.time(),
            "phase": "starting",
            "final": False,
        }

    # ------------------------------------------------------------------
    def update(self, force: bool = False, **fields) -> bool:
        """Merge ``fields`` and (throttled) publish; returns write-happened."""
        self._state.update(fields)
        now = time.monotonic()
        if not force and now - self._last_write < self.min_interval:
            return False
        self._last_write = now
        return self._write()

    def finalize(self, **fields) -> bool:
        """Force-write the terminal state (survives run completion)."""
        self._state.update(fields)
        self._state["final"] = True
        self._state["finished_at"] = time.time()
        return self._write()

    def fail(self, exc: BaseException) -> bool:
        """Finalize a run that raised: ``phase: "failed"`` plus its text."""
        return self.finalize(phase="failed",
                             error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def _write(self) -> bool:
        self._state["updated_at"] = time.time()
        try:
            write_atomic(
                self.path,
                json.dumps(self._state, indent=2, sort_keys=True) + "\n",
            )
        except OSError as exc:
            if not self._warned:
                self._warned = True
                logger.warning("could not publish run status to %s: %s",
                               self.path, exc)
            return False
        self.writes += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatusPublisher({self.path}, {self.writes} writes)"


# ----------------------------------------------------------------------
# Reader / renderer (the ``repro obs watch`` backend).
# ----------------------------------------------------------------------
def read_status(path: Union[str, Path]) -> Optional[dict]:
    """Load a status file; ``None`` if missing/torn (transient states)."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("schema") != STATUS_SCHEMA:
        return None
    return payload


def _fmt_duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"


def _bar(fraction: float, width: int = 30) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def render_status(status: dict, now: Optional[float] = None) -> str:
    """Multi-line terminal rendering of one status snapshot."""
    now = time.time() if now is None else now
    lines = []
    final = status.get("final", False)
    state = "FINISHED" if final else "running"
    lines.append(
        f"{status.get('kind', 'run')} {status.get('run_id', '?')} "
        f"[{state}]  phase: {status.get('phase', '?')}"
    )
    error = status.get("error")
    if error:
        lines.append(f"  error     {error}")
    started = status.get("started_at")
    if started:
        end = status.get("finished_at", now)
        lines.append(f"  elapsed   {_fmt_duration(end - started)}")
    done, total = status.get("jobs_done"), status.get("jobs_total")
    if done is not None and total:
        fraction = done / total
        lines.append(
            f"  progress  [{_bar(fraction)}] {done}/{total} ({fraction:.0%})"
        )
    throughput = status.get("throughput")
    if throughput is not None:
        unit = status.get("throughput_unit", "jobs/s")
        lines.append(f"  rate      {throughput:.2f} {unit}")
    eta = status.get("eta_sec")
    if eta is not None and not final:
        lines.append(f"  eta       {_fmt_duration(eta)}")
    hit_rate = status.get("cache_hit_rate")
    if hit_rate is not None:
        lines.append(f"  cache     {hit_rate:.0%} hit rate")
    best = status.get("best_fitness")
    if best is not None:
        lines.append(f"  best      {best:.4f} fitness so far")
    median = status.get("fitness_median")
    if median is not None:
        p90 = status.get("fitness_p90")
        line = f"  fitness   median {median:.4f}"
        if p90 is not None:
            line += f", p90 {p90:.4f}"
        lines.append(line)
    unique = status.get("unique_fraction")
    if unique is not None:
        lines.append(f"  diversity {unique:.0%} unique genotypes")
    eval_rate = status.get("eval_per_sec")
    if eval_rate is not None:
        lines.append(f"  evals     {eval_rate:.1f}/s last generation")
    workers = status.get("workers")
    if isinstance(workers, dict) and workers:
        alive = sum(1 for w in workers.values() if w.get("alive", True))
        stalled = [name for name, w in workers.items() if w.get("stalled")]
        line = f"  workers   {alive}/{len(workers)} alive"
        if stalled:
            line += f", STALLED: {', '.join(sorted(stalled))}"
        lines.append(line)
    updated = status.get("updated_at")
    if updated is not None:
        age = now - updated
        stale = "" if final or age < 15 else "  ** stale? **"
        lines.append(f"  updated   {_fmt_duration(age)} ago{stale}")
    serving = status.get("serving")
    if isinstance(serving, dict):
        latency = serving.get("latency") or {}
        if latency:
            lines.append(
                "  latency   "
                + "  ".join(
                    f"{q} {_fmt_latency(latency.get(q))}"
                    for q in ("p50", "p90", "p99", "p99_9")
                    if q in latency
                )
                + " (amortized/access)"
            )
        shards = serving.get("shards") or []
        if shards:
            parts = [
                f"{shard.get('shard', '?')}: "
                f"p99 {_fmt_latency(shard.get('p99'))} "
                f"q{shard.get('queue_depth', 0)}"
                for shard in shards
            ]
            lines.append("  shards    " + " | ".join(parts))
    return "\n".join(lines)


def _fmt_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.0f}ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def watch(
    path: Union[str, Path],
    interval: float = 1.0,
    iterations: Optional[int] = None,
    stream=None,
    clear: bool = True,
    max_interval: float = 5.0,
) -> int:
    """Refreshing terminal view of a status file; the CLI backend.

    Tolerates a missing or torn snapshot mid-run: the last good snapshot
    stays on screen under a ``stale since …`` banner, and the poll
    interval backs off (doubling up to ``max_interval``) until the file
    reads cleanly again.

    Returns 0 once the status goes ``final`` (or after ``iterations``
    refreshes), 1 if the file never became readable or the run's final
    phase is ``failed``.
    """
    stream = stream if stream is not None else sys.stdout
    last_good: Optional[dict] = None
    stale_since: Optional[float] = None
    delay = interval
    count = 0
    while True:
        status = read_status(path)
        if status is not None:
            last_good = status
            stale_since = None
            delay = interval
            if clear and getattr(stream, "isatty", lambda: False)():
                stream.write("\x1b[2J\x1b[H")
            stream.write(render_status(status) + "\n")
            stream.flush()
            if status.get("final"):
                return 1 if status.get("phase") == "failed" else 0
        else:
            now = time.time()
            if stale_since is None:
                stale_since = now
            clock = time.strftime("%H:%M:%S", time.localtime(stale_since))
            if clear and getattr(stream, "isatty", lambda: False)():
                stream.write("\x1b[2J\x1b[H")
            if last_good is not None:
                stream.write(render_status(last_good) + "\n")
                stream.write(
                    f"  ** status unreadable — stale since {clock} "
                    f"({_fmt_duration(now - stale_since)} ago); "
                    f"retrying every {delay:.1f}s **\n"
                )
            else:
                stream.write(
                    f"waiting for {path} (unreadable since {clock}) ...\n"
                )
            stream.flush()
            delay = min(delay * 2.0, max_interval)
        count += 1
        if iterations is not None and count >= iterations:
            return 0 if last_good is not None else 1
        time.sleep(delay)
