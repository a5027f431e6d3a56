"""Perf-trend tracking: append-only ``BENCH_history.jsonl`` + comparator.

``BENCH_kernels.json`` is a single point: it says how fast the kernels
are *now*, not whether the last commit made them slower.  This module
turns each ``make bench-kernels`` run into an entry in an append-only
JSONL history keyed by git revision (and code digest), and provides a
comparator that reports per-metric deltas against the previous entry and
flags regressions past a configurable threshold — the backend of
``repro obs trend [--check]``, wired into CI as a soft (non-blocking)
gate and into the figure-export manifests.

Direction handling: throughput-like metrics (``*_accesses_per_sec``,
``*speedup``) regress when they *drop*; latency-like metrics (anything
ending in ``_sec``, ``_seconds`` or ``_sec_per_generation``) regress
when they *rise*.  The convention is the metric-name suffix, so new
metrics get sensible semantics without touching the comparator.

Entries record wall-clock measurements from whatever machine ran the
bench; comparing across different hosts is noisy by nature, which is why
``--check`` is a *soft* gate (CI annotates, humans decide) and why the
default threshold is a generous 15 %.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "TREND_SCHEMA",
    "DEFAULT_THRESHOLD",
    "compare_entries",
    "default_history_path",
    "flatten_bench_kernels",
    "format_deltas",
    "latest_deltas",
    "lower_is_better",
    "read_history",
    "record_bench_kernels",
    "record_entry",
]

logger = logging.getLogger(__name__)

#: Bump when the history-entry layout changes.
TREND_SCHEMA = "repro-trend/1"

#: Default regression threshold (fractional change against the previous
#: entry).  Generous on purpose: wall-clock benches on shared machines
#: are noisy, and this is a soft gate.
DEFAULT_THRESHOLD = 0.15

HISTORY_ENV = "REPRO_TREND_HISTORY"
HISTORY_NAME = "BENCH_history.jsonl"


def default_history_path() -> Path:
    """``$REPRO_TREND_HISTORY``, else ``BENCH_history.jsonl``.

    The file lives next to ``BENCH_kernels.json`` at the repository root
    when running from a checkout; in the current directory otherwise.
    """
    env = os.environ.get(HISTORY_ENV)
    if env:
        return Path(env).expanduser()
    # src/repro/obs/trend.py -> repo root is three parents above repro/.
    root = Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").is_file():
        return root / HISTORY_NAME
    return Path(HISTORY_NAME)


# ----------------------------------------------------------------------
# Recording.
# ----------------------------------------------------------------------
def record_entry(
    history_path: Union[str, Path],
    metrics: Dict[str, float],
    source: str,
    extra: Optional[dict] = None,
) -> dict:
    """Append one entry (single atomic-ish ``O_APPEND`` line) and return it.

    The entry is keyed by git revision and simulator code digest so the
    comparator can say *which commit* a delta belongs to.
    """
    from ..eval.parallel import code_version  # lazy: avoid import cycles
    from .provenance import git_revision

    clean = {}
    for name, value in metrics.items():
        if isinstance(value, (int, float)) and value == value:  # drop NaN
            clean[str(name)] = float(value)
    entry = {
        "schema": TREND_SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "git_revision": git_revision(),
        "code_version": code_version(),
        "source": source,
        "metrics": clean,
    }
    if extra:
        entry["extra"] = extra
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
    # One write() of one line with O_APPEND: concurrent recorders cannot
    # interleave within a line on POSIX.
    with open(path, "a") as handle:
        handle.write(line)
    return entry


def flatten_bench_kernels(bench: dict) -> Dict[str, float]:
    """Flatten a ``BENCH_kernels.json`` payload into trend metrics."""
    metrics: Dict[str, float] = {}
    for row in bench.get("sim_throughput", ()):
        k = row.get("assoc")
        for field in ("lut_accesses_per_sec", "walk_accesses_per_sec",
                      "columnar_accesses_per_sec", "speedup",
                      "columnar_speedup"):
            if field in row:
                metrics[f"sim.k{k}.{field}"] = float(row[field])
    ga = bench.get("ga_generation") or {}
    for field in ("lut_sec_per_generation", "walk_sec_per_generation",
                  "speedup"):
        if field in ga:
            metrics[f"ga.{field}"] = float(ga[field])
    pop = bench.get("population_batch") or {}
    for field in ("walk_sec", "columnar_sec", "speedup",
                  "lane_accesses_per_sec"):
        if field in pop:
            metrics[f"pop.{field}"] = float(pop[field])
    prof = bench.get("analytics_profile") or {}
    for field in ("profile_accesses_per_sec", "oracle_accesses_per_sec",
                  "speedup_vs_oracle"):
        if field in prof:
            metrics[f"analytics.{field}"] = float(prof[field])
    return metrics


def record_bench_kernels(
    bench_path: Union[str, Path],
    history_path: Optional[Union[str, Path]] = None,
) -> dict:
    """Append the trend entry for one ``BENCH_kernels.json``; returns it."""
    with open(bench_path) as handle:
        bench = json.load(handle)
    metrics = flatten_bench_kernels(bench)
    if not metrics:
        raise ValueError(f"{bench_path}: no trend metrics found")
    extra = {
        "bench_created_at": bench.get("created_at"),
        "accesses": (bench.get("stream") or {}).get("accesses"),
    }
    return record_entry(
        history_path if history_path is not None else default_history_path(),
        metrics,
        source="bench-kernels",
        extra=extra,
    )


# ----------------------------------------------------------------------
# Reading + comparing.
# ----------------------------------------------------------------------
def read_history(
    path: Union[str, Path], source: Optional[str] = None
) -> List[dict]:
    """Entries in append order; skips (and logs) malformed lines.

    A truncated final line — the machine died mid-append — must not make
    the whole history unreadable.
    """
    entries: List[dict] = []
    try:
        handle = open(path)
    except OSError:
        return entries
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                logger.warning("%s:%d: skipping malformed history line",
                               path, lineno)
                continue
            if not isinstance(entry, dict) or entry.get("schema") != TREND_SCHEMA:
                logger.warning("%s:%d: skipping non-%s entry",
                               path, lineno, TREND_SCHEMA)
                continue
            if source is not None and entry.get("source") != source:
                continue
            entries.append(entry)
    return entries


def lower_is_better(metric: str) -> bool:
    """Direction convention: time-like suffixes regress when they rise.

    Rate metrics are checked first: ``*_per_sec`` would otherwise match
    the ``_sec`` suffix and read a throughput collapse as an improvement.
    """
    if metric.endswith(("_per_sec", "speedup")):
        return False
    return metric.endswith(("_sec", "_seconds", "_sec_per_generation",
                            "_wall_sec", "_ms", "_bytes"))


def compare_entries(
    prev: dict, cur: dict, threshold: float = DEFAULT_THRESHOLD
) -> List[dict]:
    """Per-metric deltas of ``cur`` against ``prev``.

    Each delta dict: ``metric``, ``prev``, ``cur``, ``delta_frac``
    (signed fractional change), ``direction`` (``"better"`` / ``"worse"``
    / ``"flat"``), and ``regression`` (worse by more than ``threshold``).

    Metrics present in only one entry are *reported*, not skipped: a
    metric that vanished (``direction="removed"``, ``cur=None``) is
    flagged as a regression, because silently dropping it is exactly how
    a collapsed ``*_per_sec`` series would evade the gate; a new metric
    (``direction="added"``, ``prev=None``) is informational only.  For
    both, ``delta_frac`` is ``None``.  Common metrics come first (sorted),
    then removed, then added.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    prev_metrics = prev.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    deltas: List[dict] = []
    for metric in sorted(set(prev_metrics) & set(cur_metrics)):
        before, after = prev_metrics[metric], cur_metrics[metric]
        if before == 0:
            continue  # no meaningful fractional change
        delta_frac = (after - before) / abs(before)
        worse = delta_frac > 0 if lower_is_better(metric) else delta_frac < 0
        magnitude = abs(delta_frac)
        direction = ("flat" if magnitude < 1e-12
                     else "worse" if worse else "better")
        deltas.append({
            "metric": metric,
            "prev": before,
            "cur": after,
            "delta_frac": delta_frac,
            "direction": direction,
            "regression": worse and magnitude > threshold,
        })
    for metric in sorted(set(prev_metrics) - set(cur_metrics)):
        deltas.append({
            "metric": metric,
            "prev": prev_metrics[metric],
            "cur": None,
            "delta_frac": None,
            "direction": "removed",
            "regression": True,
        })
    for metric in sorted(set(cur_metrics) - set(prev_metrics)):
        deltas.append({
            "metric": metric,
            "prev": None,
            "cur": cur_metrics[metric],
            "delta_frac": None,
            "direction": "added",
            "regression": False,
        })
    return deltas


def latest_deltas(
    history_path: Union[str, Path],
    threshold: float = DEFAULT_THRESHOLD,
    source: Optional[str] = None,
) -> Optional[dict]:
    """Compare the newest history entry against its predecessor.

    The predecessor is the most recent earlier entry *from the same
    source* as the newest one: histories interleave sources (a
    ``bench-serving`` row lands between two ``bench-kernels`` rows), and
    comparing across sources would report every metric as removed/added
    garbage.  Pass ``source`` to pin which series the "newest entry" is
    drawn from.

    Returns ``None`` when there is nothing comparable; otherwise a
    summary dict: ``source``, ``prev_revision``, ``cur_revision``,
    ``deltas``, ``regressions`` (the subset), ``threshold``.
    """
    entries = read_history(history_path, source=source)
    if not entries:
        return None
    cur = entries[-1]
    cur_source = cur.get("source")
    prev = next(
        (e for e in reversed(entries[:-1])
         if e.get("source") == cur_source),
        None,
    )
    if prev is None:
        return None
    deltas = compare_entries(prev, cur, threshold=threshold)
    return {
        "source": cur_source,
        "prev_revision": prev.get("git_revision", "unknown"),
        "cur_revision": cur.get("git_revision", "unknown"),
        "prev_recorded_at": prev.get("recorded_at"),
        "cur_recorded_at": cur.get("recorded_at"),
        "threshold": threshold,
        "deltas": deltas,
        "regressions": [d for d in deltas if d["regression"]],
    }


def format_deltas(deltas: Sequence[dict]) -> str:
    """Fixed-width delta table for terminal output."""
    if not deltas:
        return "(no comparable metrics)"
    width = max(len(d["metric"]) for d in deltas)
    lines = []
    for d in deltas:
        marker = ("!! REGRESSION" if d["regression"]
                  else "  (worse)" if d["direction"] == "worse"
                  else "  (added)" if d["direction"] == "added"
                  else "")
        prev = "(absent)" if d["prev"] is None else f"{d['prev']:.4g}"
        cur = "(absent)" if d["cur"] is None else f"{d['cur']:.4g}"
        frac = ("        " if d["delta_frac"] is None
                else f"{d['delta_frac']:>+8.1%}")
        lines.append(
            f"  {d['metric']:<{width}}  {prev:>14} -> "
            f"{cur:>14}  {frac}{marker}"
        )
    return "\n".join(lines)
