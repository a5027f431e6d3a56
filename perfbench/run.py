"""The repository benchmark: serve-zipf, ga-plru and compare-suite.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 20 \
        --trace 0

Runs units of one workload (``--workload all``: each workload in turn),
every unit in a fresh process (``perfbench/unit.py``) with the ``REPRO_*``
environment cleared, until ``--seconds`` of measuring are spent.  With
``--trace 1`` the units alternate untraced and traced, and the traced ones
time every layer.  Prints each metric by name with its unit and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

Exits non-zero without a result when a unit process fails, e.g. when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYERS, layer_metric  # noqa: E402

WORKLOADS = ("serve-zipf", "ga-plru", "compare-suite")

#: A run stops starting units past this many seconds, so it ends in time.
RUN_LIMIT_S = 170.0

#: Workloads whose units differ in their inputs (GA repetitions search
#: from different seeds), so each unit checks its own outputs instead of
#: being compared with the first unit.
CHECK_EVERY_UNIT = ("ga-plru",)

#: 4-DGIPPR's geomean misses as a share of LRU's in the paper (Figure 11).
PAPER_DGIPPR_MISS_PCT = 91.0

#: Seconds ``unit.speed_probe`` takes on an unloaded 2-vCPU KVM guest.
#: End-to-end times are reported at that machine speed: each unit's
#: seconds are scaled by this over the unit's own probe.
PROBE_REF_S = 0.06


class UnitError(RuntimeError):
    """A unit process failed or timed out: the run has no result."""


def child_env() -> dict:
    """This environment without ``REPRO_*`` settings, importing ``src``.

    ``REPRO_SCALE`` would rescale trace lengths, ``REPRO_WORKERS`` fork the
    suite and ``REPRO_COLUMNAR_*`` retune the engine; none may leak in.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_digest() -> str:
    """Digest of the program's sources: the revision where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_unit(workload: str, seed: int, rep: int, traced: bool, check: bool,
             timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep)]
    if traced:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise UnitError(f"{workload} unit timed out after {timeout:.0f}s") \
            from exc
    if proc.returncode != 0:
        raise UnitError(
            f"{workload} unit exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                traced=traced)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Units until about ``seconds`` of measuring are spent.

    Output checks do not count.  Another unit (with ``trace``: another
    untraced-then-traced pair on the same inputs) starts only while at
    least half of one still fits, so runs end close to ``seconds``.
    """
    units: list = []
    started = time.monotonic()
    rep = 0
    while True:
        began = time.monotonic()
        for traced in (False, True) if trace else (False,):
            elapsed = time.monotonic() - started
            if elapsed >= RUN_LIMIT_S:
                raise UnitError(f"{workload}: run limit exceeded")
            check = not units or workload in CHECK_EVERY_UNIT
            units.append(run_unit(workload, seed, rep, traced, check,
                                  RUN_LIMIT_S - elapsed))
        rep += 1
        now = time.monotonic()
        checking = sum(u.get("check_s", 0.0) for u in units)
        step = now - began - sum(u.get("check_s", 0.0)
                                 for u in units[-(1 + trace):])
        if now - started - checking + step / 2 >= seconds:
            return units


def mismatches(units: list) -> int:
    """Outputs that differ from the first unit run on the same inputs."""
    first: dict = {}
    failed = 0
    for unit in units:
        if "outputs" not in unit:
            continue
        ref = first.setdefault(unit["inputs"], unit["outputs"])
        failed += sum(a != b for a, b in zip(ref, unit["outputs"]))
        failed += abs(len(ref) - len(unit["outputs"]))
    return failed


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rate(unit: dict, key: str = "accesses") -> float:
    return unit[key] / unit["work_s"]


def ref_seconds(unit: dict, seconds: float) -> float:
    """``seconds`` of ``unit`` at the reference machine speed."""
    return seconds * PROBE_REF_S / unit["probe_s"]


def end_to_end(units: list) -> dict:
    return {
        "setup_s": statistics.median(
            ref_seconds(u, u["setup_s"]) for u in units
        ),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "accesses_per_s": statistics.median(
            u["accesses"] / ref_seconds(u, u["work_s"]) for u in units
        ),
    }


def workload_metrics(workload: str, units: list) -> dict:
    """The workload's own end-to-end figures.

    ``BENCHMARK.json`` bounds only metrics that every workload reports;
    these are printed with each untraced run and reported with the
    per-layer set.
    """
    out = dict(units[0]["exact"])
    if workload == "serve-zipf":
        batches = [ms for u in units for ms in u["batch_ms"]]
        out.update({
            "serve.accesses_per_s": statistics.median(rate(u) for u in units),
            "serve.batch_p50_ms": percentile(batches, 0.5),
            "serve.batch_p90_ms": percentile(batches, 0.9),
            "serve.batch_samples": len(batches),
        })
    elif workload == "ga-plru":
        out["ga.evals_per_s"] = statistics.median(
            rate(u, "ops") for u in units
        )
    else:
        out["compare.accesses_per_s"] = statistics.median(
            rate(u) for u in units
        )
    return out


def per_layer(workload: str, units: list) -> dict:
    """Layer self times and counts from the traced units (means per unit)."""
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]

    def mean(get) -> float:
        return sum(get(u) for u in traced) / len(traced)

    def total(field: str, key: str) -> float:
        return sum(u[field].get(key, 0) for u in traced)

    out = {
        layer_metric(layer): mean(lambda u: u["layers"].get(layer, 0.0))
        for layer in LAYERS
    }
    hits = total("kernels", "cache_hits")
    out.update({
        "serve.frontend.shed_accesses": mean(lambda u: u.get("shed", 0)),
        "engine.collapse_ratio": ratio(total("counts", "engine.accesses_in"),
                                       total("counts", "engine.entries_out")),
        "engine.lane_tables_mb": max(
            u["lane_tables_bytes"] for u in traced
        ) / 2 ** 20,
        "engine.lane_accesses_per_s": ratio(
            total("counts", "engine.lane_accesses"),
            total("layers", "engine.run"),
        ),
        "kernels.compiles": mean(lambda u: u["kernels"]["compiles"]),
        "kernels.cache_hit_ratio": ratio(
            hits, hits + total("kernels", "cache_misses")
        ),
        "ga.batches": mean(lambda u: u["calls"].get("ga.evaluate", 0)),
        "ga.lanes_per_batch": ratio(total("counts", "ga.lanes"),
                                    total("calls", "ga.evaluate")),
        "ga.memo_hit_ratio": mean(lambda u: u.get("memo_hit_ratio", 0.0)),
        "proc.cpu_s": mean(lambda u: u["cpu_s"]),
        "proc.cpu_util": ratio(sum(u["cpu_s"] for u in traced),
                               sum(u["region_s"] for u in traced)),
        "trace.wall_s": mean(lambda u: u["region_s"]),
        "trace.overhead_ratio": ratio(
            statistics.median(u["region_s"] for u in traced),
            statistics.median(u["region_s"] for u in plain),
        ),
    })
    # Measured apart from the self times, which must add up to it.
    out["trace.other_s"] = out["trace.wall_s"] - mean(lambda u: u["outer_s"])
    out.update(workload_metrics(workload, plain))
    return out


def load_metrics(trace: bool):
    """``(names reported in this mode, unit of every metric)``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    units_of = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return names, units_of


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 names: list, units_of: dict) -> dict:
    """Measure one workload, print its lines, return its result object."""
    units = measure(workload, seed, seconds, trace)
    ok = [u for u in units if "work_s" in u]
    if {u["traced"] for u in ok} != {False, trace}:
        raise UnitError(f"{workload}: no unit of a kind completed:\n"
                        + "\n".join(u.get("error", "") for u in units))
    attempted = sum(u["ops"] for u in units)
    failed = sum(u["failed"] for u in units) + mismatches(units)
    measured = per_layer(workload, ok) if trace else end_to_end(ok)
    extra = set(measured) - set(names)
    missing = set() if trace else set(names) - set(measured)
    if extra or missing:
        raise UnitError(
            f"metrics differ from BENCHMARK.json: {sorted(extra | missing)}"
        )
    # Per-layer metrics a workload does not reach are 0.
    metrics = {name: measured.get(name, 0) for name in names}
    first = ok[0]
    print(f"# {workload} seed={seed} trace={int(trace)} units={len(units)} "
          f"git={git_revision()} src={source_digest()} "
          f"python={platform.python_version()} "
          f"numpy={first['versions']['numpy']} nproc={os.cpu_count()} "
          f"env=REPRO_*-cleared probe_s="
          f"{statistics.median(u['probe_s'] for u in ok):.4f}")
    for unit in units:
        if "error" in unit:
            print(f"# unit error:\n{unit['error']}", file=sys.stderr)
    shown = dict(metrics)
    if not trace:
        shown.update(workload_metrics(workload, ok))
    for name, value in shown.items():
        note = ""
        if name.startswith("serve.batch_p"):
            note = f" (n={shown['serve.batch_samples']})"
        elif name == "compare.dgippr_miss_pct" and value:
            note = f" (paper: {PAPER_DGIPPR_MISS_PCT} %)"
        print(f"{name} {value!r} {units_of[name]}{note}")
    print(f"ops {attempted}")
    print(f"failed_ops {failed}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        names, units_of = load_metrics(trace)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            workload: run_workload(workload, args.seed, args.seconds, trace,
                                   names, units_of)
            for workload in workloads
        }
    except (UnitError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        payload = results[workloads[0]]
    else:
        payload = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}:{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
