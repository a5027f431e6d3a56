"""Tests for the WN1/WI evolution methodology (scaled down)."""

import json
import os
import subprocess
import sys

import pytest

from repro.eval import default_config
from repro.eval.crossval import (
    evolve_duel_vectors,
    evolve_wn1_vectors,
    lru_miss_rates,
    partition_benchmarks,
)

QUICK = default_config(trace_length=3000)
BENCHES = ["453.povray", "447.dealII", "462.libquantum", "482.sphinx3"]


class TestMissRates:
    def test_ordering(self):
        rates = lru_miss_rates(BENCHES, QUICK)
        assert rates["453.povray"] < rates["462.libquantum"]

    def test_all_in_unit_interval(self):
        rates = lru_miss_rates(BENCHES, QUICK)
        assert all(0.0 <= r <= 1.0 for r in rates.values())


class TestPartition:
    def test_two_groups_split_friendly_thrash(self):
        groups = partition_benchmarks(BENCHES, 2, QUICK)
        assert len(groups) == 2
        assert "453.povray" in groups[0]  # friendliest first
        assert "462.libquantum" in groups[1] or "482.sphinx3" in groups[1]

    def test_single_group(self):
        groups = partition_benchmarks(BENCHES, 1, QUICK)
        assert len(groups) == 1
        assert sorted(groups[0]) == sorted(BENCHES)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            partition_benchmarks(BENCHES, 0, QUICK)


class TestEvolution:
    def test_duel_vectors_count(self):
        vectors = evolve_duel_vectors(
            BENCHES, 2, config=QUICK, population_size=6, generations=1
        )
        assert len(vectors) == 2
        assert all(v.k == 16 for v in vectors)

    def test_wn1_holds_out_each_benchmark(self):
        result = evolve_wn1_vectors(
            num_vectors=1,
            benchmarks=BENCHES[:2],
            config=QUICK,
            population_size=6,
            generations=1,
        )
        assert set(result) == set(BENCHES[:2])
        for vectors in result.values():
            assert len(vectors) == 1


class TestVectorScript:
    """``scripts/evolve_wn1_vectors.py`` writes the same file in every
    interpreter: its task seeds must not depend on Python's salted
    ``hash``."""

    def _script(self, output, hash_seed, *extra, check=True):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        return subprocess.run(
            [sys.executable,
             os.path.join(repo, "scripts", "evolve_wn1_vectors.py"),
             "--quick", "--workers", "1", "--population", "4",
             "--generations", "1", "--trace-length", "1000",
             "--output", str(output), *extra],
            env=env, capture_output=True, text=True, timeout=300,
            check=check,
        )

    def _run(self, output, hash_seed, *extra):
        self._script(output, hash_seed, *extra)
        return output.read_bytes()

    def test_runs_under_different_hash_seeds_write_identical_files(
        self, tmp_path
    ):
        first = self._run(tmp_path / "a.json", 1)
        second = self._run(tmp_path / "b.json", 2)
        assert first == second
        seeds = json.loads(first)["ga"]["seeds"]
        assert set(seeds) == {"WI", "fold0", "fold1"}
        assert all(set(per) == {"1", "2", "4"} for per in seeds.values())

    def test_folds_zero_is_labelled_leave_one_out(self, tmp_path):
        payload = json.loads(
            self._run(tmp_path / "loo.json", 1, "--folds", "0")
        )
        assert payload["ga"]["folds"] == 0
        assert "(leave-one-out)" in payload["methodology"]
        assert "fold;" not in payload["methodology"]
        assert len(payload["ga"]["seeds"]) == 5  # WI + one per benchmark

    @pytest.mark.parametrize("folds", ["1", "-1"])
    def test_rejects_one_or_negative_folds(self, tmp_path, folds):
        output = tmp_path / "never.json"
        result = self._script(output, 1, "--folds", folds, check=False)
        assert result.returncode == 2
        assert "--folds must be 0 or >= 2" in result.stderr
        assert not output.exists()
