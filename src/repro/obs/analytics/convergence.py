"""GA convergence telemetry: per-generation fitness/diversity records.

``evolve_ipv`` historically published one number per generation (the
best fitness) — enough to plot a learning curve, not enough to answer
the questions that actually decide a GA run's fate: has the population
collapsed onto one genotype?  Is the median still moving while the best
stalls?  Did eval throughput fall off a cliff when the columnar memo
started thrashing?  This module computes a compact per-generation record
from the GA's already-sorted ``(fitness, entries)`` list — stdlib only,
O(population · vector length) — and persists the sequence as an
atomically rewritten JSON document that ``repro obs analyze`` renders as
a report or figure-ready CSV.

Diversity is measured two ways, both cheap and both meaningful for IPVs:
``unique_fraction`` (distinct genotypes / population — 1.0 is a fully
diverse pool, ``elite/population`` means total collapse) and
``mean_hamming_to_best`` (mean per-position disagreement with the
current best vector, normalized to [0, 1] — it keeps falling *after*
uniqueness bottoms out, so the two together date-stamp the collapse).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..provenance import write_atomic

__all__ = [
    "CONVERGENCE_SCHEMA",
    "ConvergenceLog",
    "convergence_csv",
    "generation_stats",
    "read_convergence",
    "render_convergence",
]

#: Bump when the record layout changes.
CONVERGENCE_SCHEMA = "repro-ga-convergence/1"

#: Column order of :func:`convergence_csv` (one row per generation).
CSV_FIELDS = (
    "generation", "best", "median", "p90", "mean", "worst", "std",
    "unique_fraction", "mean_hamming_to_best", "population",
    "batch_evaluations", "evaluations", "elapsed_sec", "eval_per_sec",
)


def _quantile(sorted_ascending: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sequence."""
    n = len(sorted_ascending)
    if not n:
        raise ValueError("quantile of empty sequence")
    rank = max(1, math.ceil(q * n))
    return float(sorted_ascending[min(rank, n) - 1])


def generation_stats(
    generation: int,
    scored: Sequence[Tuple[float, Sequence[int]]],
    evaluations: int = 0,
    batch_evaluations: int = 0,
    elapsed_sec: float = 0.0,
) -> Dict[str, object]:
    """One convergence record from a sorted ``(fitness, entries)`` list.

    ``scored`` is exactly what ``evolve_ipv`` maintains: the population
    with fitnesses, sorted descending (best first).  ``evaluations`` is
    the run's cumulative count, ``batch_evaluations`` the number scored
    this generation (elites are carried, not re-evaluated), and
    ``elapsed_sec`` that batch's wall time — together they give the
    eval-throughput series.
    """
    if not scored:
        raise ValueError("generation_stats needs a non-empty population")
    fits = sorted(float(f) for f, _ in scored)
    n = len(fits)
    mean = sum(fits) / n
    variance = sum((f - mean) ** 2 for f in fits) / n
    best_entries = tuple(scored[0][1])
    length = len(best_entries) or 1
    distinct = len({tuple(entries) for _, entries in scored})
    hamming = sum(
        sum(1 for a, b in zip(best_entries, entries) if a != b)
        for _, entries in scored
    ) / (n * length)
    eval_per_sec = (
        batch_evaluations / elapsed_sec if elapsed_sec > 0 else 0.0
    )
    return {
        "generation": generation,
        "population": n,
        "best": fits[-1],
        "median": _quantile(fits, 0.5),
        "p90": _quantile(fits, 0.9),
        "mean": mean,
        "worst": fits[0],
        "std": math.sqrt(variance),
        "unique_fraction": distinct / n,
        "mean_hamming_to_best": hamming,
        "best_entries": [int(e) for e in best_entries],
        "evaluations": int(evaluations),
        "batch_evaluations": int(batch_evaluations),
        "elapsed_sec": float(elapsed_sec),
        "eval_per_sec": eval_per_sec,
    }


class ConvergenceLog:
    """Atomically rewritten JSON document of convergence records.

    The whole document is rewritten per append (temp + ``os.replace``,
    the ``run-status.json`` discipline) rather than JSONL-appended: a
    convergence log is tens of records, readers want one valid JSON
    value at any instant, and a crash mid-generation must not leave a
    torn tail.  Like :class:`~repro.obs.status.StatusPublisher`, write
    failures degrade to a logged no-op — telemetry never kills the run.
    """

    def __init__(self, path: Union[str, Path], meta: Optional[dict] = None):
        self.path = Path(path)
        self.records: List[dict] = []
        self.meta = dict(meta or {})
        self._warned = False

    def append(self, record: dict) -> None:
        self.records.append(dict(record))
        self._write()

    def to_json(self) -> dict:
        return {
            "schema": CONVERGENCE_SCHEMA,
            "meta": self.meta,
            "records": self.records,
        }

    def _write(self) -> None:
        try:
            write_atomic(
                self.path,
                json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            )
        except OSError as exc:
            if not self._warned:
                self._warned = True
                import logging

                logging.getLogger(__name__).warning(
                    "convergence log %s unwritable (%s); disabling",
                    self.path, exc,
                )


def read_convergence(path: Union[str, Path]) -> List[dict]:
    """Records from a :class:`ConvergenceLog` file (schema-checked)."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("schema") != CONVERGENCE_SCHEMA:
        raise ValueError(
            f"{path}: not a {CONVERGENCE_SCHEMA} document"
        )
    records = payload.get("records")
    if not isinstance(records, list):
        raise ValueError(f"{path}: malformed records")
    return records


def convergence_csv(records: Sequence[dict]) -> str:
    """Figure-ready CSV (one row per generation, :data:`CSV_FIELDS`)."""
    lines = [",".join(CSV_FIELDS)]
    for record in records:
        row = []
        for field in CSV_FIELDS:
            value = record.get(field)
            if value is None:
                row.append("")
            elif isinstance(value, float):
                row.append(f"{value:.6g}")
            else:
                row.append(str(value))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_convergence(records: Sequence[dict]) -> str:
    """Fixed-width per-generation table for terminal reports."""
    if not records:
        return "(no convergence records)"
    header = (f"  {'gen':>4} {'best':>10} {'median':>10} {'p90':>10} "
              f"{'unique':>7} {'dH(best)':>8} {'eval/s':>9}")
    lines = [header]
    for r in records:
        lines.append(
            f"  {r.get('generation', '?'):>4} "
            f"{r.get('best', float('nan')):>10.4f} "
            f"{r.get('median', float('nan')):>10.4f} "
            f"{r.get('p90', float('nan')):>10.4f} "
            f"{r.get('unique_fraction', float('nan')):>7.2f} "
            f"{r.get('mean_hamming_to_best', float('nan')):>8.3f} "
            f"{r.get('eval_per_sec', 0.0):>9.1f}"
        )
    return "\n".join(lines)
