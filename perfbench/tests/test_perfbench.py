"""Tests of the repository benchmark.

    python3 -m pytest perfbench/tests -q

They run the real benchmark on its fastest workload (about half a
minute in all), so they are not part of the tier-1 suite under tests/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import unit  # noqa: E402
from layers import LAYERS, layer_metric  # noqa: E402
from repro.serve.frontend import ShardedFrontend  # noqa: E402
from repro.serve.workload import ServingStream  # noqa: E402
from repro.workloads.spec import SPEC_BENCHMARKS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def outputs():
    """Untraced and traced serve-zipf runs of the shortest length."""
    out = {}
    for trace in (0, 1):
        proc = bench(ROOT, "--workload", "serve-zipf", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        out[trace] = proc.stdout.splitlines()
    return out


def metrics_of(lines):
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def test_every_metric_is_printed_with_its_unit(outputs):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines = outputs[trace]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                   if not line.startswith("#") and len(line.split()) >= 3}
        for metric in SPEC[kind]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert printed[metric["name"]] == metric["unit"]
        assert "ops" in {line.split()[0] for line in lines}
        assert "failed_ops" in {line.split()[0] for line in lines}


def test_exact_results_repeat_for_a_fixed_seed(outputs):
    untraced = {line.split()[0]: line.split()[1] for line in outputs[0]
                if line.startswith("serve.miss_rate ")}
    traced = metrics_of(outputs[1])
    assert float(untraced["serve.miss_rate"]) == traced["serve.miss_rate"]


def test_layer_self_times_add_up_to_traced_wall(outputs):
    # trace.other_s is the wall time minus the outermost spans, measured
    # apart from the self times: the sum checks the self-time arithmetic.
    metrics = metrics_of(outputs[1])
    layers = sum(metrics[layer_metric(layer)] for layer in LAYERS)
    assert metrics["trace.other_s"] >= 0
    assert layers + metrics["trace.other_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9
    )
    assert metrics["serve.workload.generate_s"] > 0
    assert metrics["engine.feed_s"] > 0
    assert metrics["engine.lane_tables_mb"] > 0


def test_a_different_seed_changes_the_inputs():
    def first_batch(seed):
        spec = unit.serving_spec(seed)
        return next(ServingStream(spec).chunks(unit.SERVE_BATCH))

    assert np.array_equal(first_batch(1), first_batch(1))
    assert not np.array_equal(first_batch(1), first_batch(2))
    for config_of in (unit.ga_config, unit.compare_config):
        traces = [
            SPEC_BENCHMARKS["429.mcf"].trace(
                0, c.trace_length, c.capacity_blocks, seed=c.seed
            ).address_list()
            for c in (config_of(1), config_of(2))
        ]
        assert traces[0] != traces[1]
    assert unit.ga_rng_seed(1, 0) != unit.ga_rng_seed(2, 0)


def test_a_wrong_miss_count_is_a_failed_op(monkeypatch):
    process = ShardedFrontend.process
    calls = []

    def off_by_one(self, batch):
        calls.append(len(batch))
        return process(self, batch) + (len(calls) == 1)

    def in_process(workload, seed, rep, traced, check, timeout):
        result = unit.run_unit(workload, seed, rep, traced, check)
        return dict(result, traced=traced)

    monkeypatch.setattr(unit, "SERVE_ACCESSES", 2 * unit.SERVE_BATCH)
    monkeypatch.setattr(ShardedFrontend, "process", off_by_one)
    monkeypatch.setattr(run, "run_unit", in_process)
    names, units_of = run.load_metrics(False)
    result = run.run_workload("serve-zipf", 5, 0, False, names, units_of)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert not result["correct"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "serve-zipf", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
