"""Hierarchical span profiling: where does a run spend its time?

The second observability leg.  PR 2's event tracer records *policy
dynamics* (what the replacement policy did); this module records *runtime
dynamics* (what the process did): a GA generation is a span, the
population evaluation inside it is a child span, each kernel compile is a
grandchild, and the exported timeline says exactly where the wall clock
went.

Design rules, in order of importance:

1. **Zero-cost when disabled.**  ``span(...)`` with no recorder installed
   returns a shared no-op singleton — no allocation, no clock read, no
   lock.  Instrumented call sites therefore stay inside the repo's ≤5 %
   disabled-overhead budget (``make smoke-obs`` asserts both the identity
   and a generous per-call time bound).
2. **Thread-safe.**  Each thread keeps its own span stack
   (``threading.local``); the recorder appends completed records under a
   lock.  Spans from different threads interleave freely and never
   corrupt each other's nesting.
3. **Exception-safe.**  A span closed by an exception still records its
   duration (tagged ``error=<ExcType>``), and the thread's stack is
   always popped — a crashing generation cannot wedge the profiler.
4. **Mergeable across processes.**  A record is a plain JSON-ready dict
   carrying its pid/tid, so a pool worker returns the spans of a job or
   batch next to its result (:meth:`SpanRecorder.payload`) and the parent
   merges them into one timeline (:meth:`SpanRecorder.merge_payload`).

Exports: Chrome trace-event JSON (open in ``chrome://tracing`` or
Perfetto) and folded-stack text (pipe into ``flamegraph.pl`` or any
FlameGraph-compatible viewer).

Quick use::

    from repro.obs.spans import SpanRecorder, install_recorder, span

    rec = SpanRecorder()
    install_recorder(rec)
    with span("ga.generation", gen=3):
        with span("ga.evaluate", batch=40):
            ...
    rec.write_chrome_trace("ga-profile.json")
    print(rec.to_folded())
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .provenance import write_atomic

__all__ = [
    "SPAN_SCHEMA",
    "SpanRecorder",
    "current_recorder",
    "install_recorder",
    "profiled",
    "span",
    "uninstall_recorder",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
]

#: Bump when the span-record payload layout changes.
SPAN_SCHEMA = "repro-spans/1"

# ----------------------------------------------------------------------
# Global recorder slot + per-thread span stacks.
# ----------------------------------------------------------------------
_RECORDER: Optional["SpanRecorder"] = None
_INSTALL_LOCK = threading.Lock()
_TLS = threading.local()


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def install_recorder(recorder: "SpanRecorder") -> "SpanRecorder":
    """Make ``recorder`` the process-wide active recorder (returns it)."""
    global _RECORDER
    with _INSTALL_LOCK:
        _RECORDER = recorder
    return recorder


def uninstall_recorder() -> Optional["SpanRecorder"]:
    """Deactivate profiling; returns the recorder that was active."""
    global _RECORDER
    with _INSTALL_LOCK:
        recorder, _RECORDER = _RECORDER, None
    return recorder


def current_recorder() -> Optional["SpanRecorder"]:
    """The active recorder, or ``None`` when profiling is disabled."""
    return _RECORDER


class _NoopSpan:
    """Shared do-nothing span returned while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **attrs) -> Union[_NoopSpan, "_LiveSpan"]:
    """Open a (context-manager) span named ``name`` with attributes.

    The hot-path contract: when no recorder is installed this returns the
    shared no-op singleton immediately — one global read, no allocation.
    """
    recorder = _RECORDER
    if recorder is None:
        return _NOOP
    return _LiveSpan(recorder, name, attrs)


class _LiveSpan:
    """An open span; records itself into the recorder on exit."""

    __slots__ = ("recorder", "name", "attrs", "_path", "_t0", "_ts_us",
                 "_child_us", "_parent")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self._path = name
        self._t0 = 0.0
        self._ts_us = 0
        self._child_us = 0.0
        self._parent: Optional["_LiveSpan"] = None

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes on an open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        stack = _stack()
        if stack:
            self._parent = stack[-1]
            self._path = f"{self._parent._path};{self.name}"
        stack.append(self)
        self._ts_us = time.time_ns() // 1000
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_us = (time.perf_counter() - self._t0) * 1e6
        stack = _stack()
        # Pop *this* span even if an inner span leaked (exception safety):
        # everything above it on the stack is abandoned.
        while stack:
            top = stack.pop()
            if top is self:
                break
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self._parent is not None:
            self._parent._child_us += dur_us
        self.recorder.record(
            name=self.name,
            path=self._path,
            ts_us=self._ts_us,
            dur_us=dur_us,
            self_us=max(0.0, dur_us - self._child_us),
            args=dict(self.attrs) if self.attrs else {},
        )
        return False


# ----------------------------------------------------------------------
# The recorder.
# ----------------------------------------------------------------------
class SpanRecorder:
    """Collects completed span records; exports timelines and flamegraphs.

    Records are plain dicts (JSON-ready), appended under a lock, so any
    number of threads can close spans concurrently.  ``merge_payload``
    folds in records returned by worker processes, preserving their
    pid/tid so the Chrome trace shows one lane per process.
    """

    def __init__(self, process_label: Optional[str] = None):
        self.records: List[dict] = []
        self.process_label = process_label or "repro"
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def record(self, name: str, path: str, ts_us: int, dur_us: float,
               self_us: float, args: dict) -> None:
        rec = {
            "name": name,
            "path": path,
            "ts_us": ts_us,
            "dur_us": dur_us,
            "self_us": self_us,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "args": args,
        }
        with self._lock:
            self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def spans_named(self, name: str) -> List[dict]:
        """Completed records with this span name (test/report helper)."""
        with self._lock:
            return [r for r in self.records if r["name"] == name]

    def pids(self) -> List[int]:
        """Distinct process ids present, sorted (merged traces have >1)."""
        with self._lock:
            return sorted({r["pid"] for r in self.records})

    def total_us(self, name: Optional[str] = None) -> float:
        """Summed duration (µs), optionally restricted to one span name."""
        with self._lock:
            return sum(
                r["dur_us"] for r in self.records
                if name is None or r["name"] == name
            )

    # ------------------------------------------------------------------
    # Cross-process merging.
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """Picklable snapshot a worker returns (see ``merge_payload``)."""
        with self._lock:
            return {
                "schema": SPAN_SCHEMA,
                "pid": self._pid,
                "label": self.process_label,
                "records": [dict(r) for r in self.records],
            }

    def merge_payload(self, payload: dict) -> int:
        """Fold a ``payload()`` snapshot from another process in.

        Returns the number of records merged.  Raises ``ValueError`` on a
        schema mismatch — silent misinterpretation of span trees would be
        worse than a loud failure.
        """
        if payload.get("schema") != SPAN_SCHEMA:
            raise ValueError(
                f"span payload schema {payload.get('schema')!r} != {SPAN_SCHEMA!r}"
            )
        records = payload.get("records", [])
        with self._lock:
            self.records.extend(dict(r) for r in records)
        return len(records)

    # ------------------------------------------------------------------
    # Chrome trace-event export.
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Trace-event JSON: complete (``ph: "X"``) events + metadata.

        Loadable in ``chrome://tracing`` and Perfetto.  Timestamps are
        wall-clock microseconds, so spans from merged worker processes
        line up with the parent's on one timeline.
        """
        with self._lock:
            records = list(self.records)
        events: List[dict] = []
        seen: Dict[int, bool] = {}
        tids: Dict[int, int] = {}
        for rec in records:
            pid = rec["pid"]
            tid = tids.setdefault(rec["tid"], len(tids) + 1)
            if pid not in seen:
                seen[pid] = True
                label = (self.process_label if pid == self._pid
                         else f"worker-{pid}")
                events.append({
                    "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": label},
                })
            events.append({
                "name": rec["name"],
                "cat": rec["name"].split(".", 1)[0],
                "ph": "X",
                "ts": rec["ts_us"],
                "dur": max(0.0, rec["dur_us"]),
                "pid": pid,
                "tid": tid,
                "args": rec["args"],
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"schema": SPAN_SCHEMA}}

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        """Atomically write the Chrome trace JSON; returns the path."""
        return write_chrome_trace(path, self.to_chrome_trace())

    # ------------------------------------------------------------------
    # Folded-stack (flamegraph) export.
    # ------------------------------------------------------------------
    def to_folded(self) -> str:
        """Folded-stack text: ``root;child;leaf <self-microseconds>``.

        Counts are *self* time (duration minus direct children), the
        FlameGraph convention, so frame widths in the rendered graph are
        exclusive time.  Stacks from every process are merged; add the
        pid yourself if you need per-process graphs.
        """
        folded: Dict[str, float] = {}
        with self._lock:
            for rec in self.records:
                folded[rec["path"]] = folded.get(rec["path"], 0.0) + rec["self_us"]
        lines = [
            f"{path} {int(round(us))}"
            for path, us in sorted(folded.items())
            if us >= 0.5  # sub-microsecond self time is clock noise
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_folded(self, path: Union[str, Path]) -> Path:
        return write_atomic(path, self.to_folded())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SpanRecorder({len(self.records)} spans, "
                f"pids={self.pids()})")


def write_chrome_trace(path: Union[str, Path], trace: dict) -> Path:
    """Atomically write a Chrome trace dict as JSON; returns the path."""
    return write_atomic(
        path, json.dumps(trace, separators=(",", ":")) + "\n"
    )


class profiled:
    """Context manager: install a fresh recorder, export on exit.

    ::

        with profiled("run.trace.json", folded="run.folded") as rec:
            ...instrumented work...

    Restores the previously installed recorder (if any) afterwards, so
    nesting is safe.
    """

    def __init__(self, chrome_path: Optional[Union[str, Path]] = None,
                 folded: Optional[Union[str, Path]] = None,
                 recorder: Optional[SpanRecorder] = None):
        self.chrome_path = chrome_path
        self.folded_path = folded
        self.recorder = recorder or SpanRecorder()
        self._previous: Optional[SpanRecorder] = None

    def __enter__(self) -> SpanRecorder:
        self._previous = current_recorder()
        install_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc) -> None:
        uninstall_recorder()
        if self._previous is not None:
            install_recorder(self._previous)
        if self.chrome_path is not None:
            self.recorder.write_chrome_trace(self.chrome_path)
        if self.folded_path is not None:
            self.recorder.write_folded(self.folded_path)


# ----------------------------------------------------------------------
# Schema validation (used by tests and ``make smoke-obs``).
# ----------------------------------------------------------------------
_PHASES = {"X", "M"}


def validate_chrome_trace(trace: dict) -> int:
    """Validate a Chrome trace-event dict; returns the ``"X"`` event count.

    Checks the subset of the trace-event format this module emits:
    ``traceEvents`` list; every event has a string ``name``, a known
    ``ph``, integer ``pid``/``tid``; complete events carry non-negative
    numeric ``ts``/``dur``; metadata events carry ``args.name``.  Raises
    ``ValueError`` with the offending event index on any violation.
    """
    if not isinstance(trace, dict) or not isinstance(
        trace.get("traceEvents"), list
    ):
        raise ValueError("chrome trace must be a dict with a traceEvents list")
    complete = 0
    for i, event in enumerate(trace["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}]: not an object")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"traceEvents[{i}]: missing/empty name")
        ph = event.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"traceEvents[{i}]: unknown phase {ph!r}")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"traceEvents[{i}]: {field} must be an int")
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"traceEvents[{i}]: {field} must be a non-negative number"
                    )
            complete += 1
        else:  # metadata
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"traceEvents[{i}]: metadata needs args.name")
    return complete


def validate_chrome_trace_file(path: Union[str, Path]) -> int:
    """Load ``path`` and :func:`validate_chrome_trace` it."""
    with open(path) as handle:
        return validate_chrome_trace(json.load(handle))
