"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.command == "compare"
        assert "dgippr" in args.policies


class TestCommands:
    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("lru", "gippr", "dgippr", "drrip", "pdp", "belady"):
            assert name in out

    def test_vectors_shows_paper_ipvs(self, capsys):
        assert main(["vectors"]) == 0
        out = capsys.readouterr().out
        assert "GIPLR" in out
        assert "insertion at position 13" in out  # the GIPLR vector

    def test_overhead_table(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "gippr" in out and "drrip" in out

    def test_compare_small(self, capsys):
        code = main([
            "compare",
            "--policies", "lru", "dgippr",
            "--benchmarks", "462.libquantum", "453.povray",
            "--length", "4000",
            "--chart",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GEOMEAN" in out
        assert "462.libquantum" in out
        assert "baseline" in out  # the chart rendered

    def test_evolve_small(self, capsys):
        code = main([
            "evolve",
            "--benchmarks", "462.libquantum",
            "--generations", "1",
            "--population", "6",
            "--length", "3000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fitness (mean speedup over LRU):" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--population", "0", "population_size must be at least 1, got 0"),
        ("--generations", "-1", "generations must be non-negative, got -1"),
    ])
    def test_evolve_rejects_bad_sizes(self, capsys, flag, value, message):
        code = main([
            "evolve", "--benchmarks", "462.libquantum", "--length", "2000",
            flag, value,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"cannot evolve: {message}"]
        assert "fitness" not in captured.out

    def test_trace_stats(self, capsys):
        from repro.eval.config import default_config
        from repro.trace import stack_distance_histogram
        from repro.workloads import get_benchmark

        assert main(["trace-stats", "429.mcf", "--length", "4000"]) == 0
        out = capsys.readouterr().out
        assert "429.mcf" in out
        assert "footprint" in out
        # Every per-simpoint line, the cold and reuse percentages
        # included, as the pure-Python oracle's histogram gives them.
        benchmark = get_benchmark("429.mcf")
        config = default_config(trace_length=4000)
        expected = []
        for trace, weight in zip(
            benchmark.traces(config.trace_length, config.capacity_blocks),
            benchmark.weights(),
        ):
            histogram = stack_distance_histogram(trace, max_distance=4096)
            cold = histogram.get(-1, 0)
            reuses = len(trace) - cold
            expected.append(
                f"  {trace.name} (weight {weight:.2f}): "
                f"{len(trace):,} accesses, footprint {trace.footprint():,}, "
                f"cold {cold / len(trace):.1%}"
            )
            assert reuses
            for threshold in (64, 256, 1024, 4096):
                mass = sum(
                    c for d, c in histogram.items() if 0 <= d < threshold
                )
                expected.append(
                    f"    reuse within stack distance {threshold:>5}: "
                    f"{mass / reuses:.1%}"
                )
        assert out.splitlines()[1:] == expected

    def test_trace_stats_unknown_benchmark(self):
        with pytest.raises(ValueError):
            main(["trace-stats", "999.bogus"])

    def test_simulate_roundtrip(self, tmp_path, capsys):
        from repro.trace import save_trace, uniform_random

        path = tmp_path / "t.npz"
        save_trace(uniform_random(500, 4000, seed=1), path)
        code = main(["simulate", str(path), "--policy", "lru", "--sets", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "misses" in out and "mpki" in out

    def test_simulate_with_filter(self, tmp_path, capsys):
        from repro.trace import save_trace, zipf

        path = tmp_path / "t.npz"
        save_trace(zipf(400, 5000, seed=2), path)
        code = main(["simulate", str(path), "--policy", "plru",
                     "--filter-l1l2"])
        assert code == 0
        assert "L1/L2 filter" in capsys.readouterr().out


class TestObservabilityCommands:
    def _traced(self, tmp_path, *extra):
        out = tmp_path / "events.jsonl"
        code = main([
            "trace", "462.libquantum",
            "--length", "3000", "--sets", "16",
            "--out", str(out), *extra,
        ])
        return code, out

    def test_trace_writes_and_verifies(self, tmp_path, capsys):
        code, out = self._traced(tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "events ->" in printed
        assert "replay OK" in printed
        assert out.exists()
        # Provenance sidecar rides along by default.
        assert (tmp_path / "events.manifest.json").exists()

    def test_trace_sampled_skips_verification(self, tmp_path, capsys):
        code, out = self._traced(tmp_path, "--sample-every", "4")
        assert code == 0
        assert "replay OK" not in capsys.readouterr().out

    def test_trace_metrics_export(self, tmp_path):
        from repro.obs import parse_prometheus

        metrics = tmp_path / "metrics.prom"
        code, _ = self._traced(tmp_path, "--metrics-out", str(metrics))
        assert code == 0
        parsed = parse_prometheus(metrics.read_text())
        assert any(name == "repro_trace_events_total"
                   for name, _ in parsed)

    def test_obs_summary_validate_replay_metrics(self, tmp_path, capsys):
        _, out = self._traced(tmp_path)
        capsys.readouterr()

        assert main(["obs", "summary", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "miss" in summary and "insertion" in summary

        assert main(["obs", "validate", str(out)]) == 0
        assert "all valid" in capsys.readouterr().out

        assert main(["obs", "replay", str(out)]) == 0
        assert "evictions" in capsys.readouterr().out

        assert main(["obs", "metrics", str(out)]) == 0
        assert "# TYPE repro_trace_events_total counter" in (
            capsys.readouterr().out
        )

    def test_obs_validate_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"nope","access":1}\n')
        assert main(["obs", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_verbose_flag_accepted(self, tmp_path):
        code, _ = self._traced(tmp_path, "--no-verify")
        assert code == 0
        args = build_parser().parse_args(["-v", "policies"])
        assert args.verbose == 1
        args = build_parser().parse_args(
            ["--log-level", "debug", "policies"]
        )
        assert args.log_level == "debug"


class TestObsAnalyze:
    def test_requires_an_input(self, capsys):
        assert main(["obs", "analyze"]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

    def test_benchmark_profile_with_outputs(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "curve.csv"
        code = main([
            "obs", "analyze",
            "--benchmark", "429.mcf",
            "--length", "2000", "--sets", "16",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "workload profile:" in rendered
        assert "miss curve" in rendered
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro-analytics-report/1"
        assert payload["meta"]["benchmark"] == "429.mcf"
        assert payload["profile"]["working_set"]["accesses"] == 2000
        assert payload["profile"]["num_sets"] == 16
        assert csv_path.read_text().startswith("capacity_blocks")

    def test_convergence_only(self, tmp_path, capsys):
        from repro.obs.analytics import ConvergenceLog, generation_stats

        log_path = tmp_path / "conv.json"
        log = ConvergenceLog(log_path)
        scored = [(2.0, (0, 1)), (1.0, (1, 1))]
        for generation in range(2):
            log.append(generation_stats(generation, scored))
        csv_path = tmp_path / "conv.csv"
        code = main([
            "obs", "analyze",
            "--convergence", str(log_path), "--csv", str(csv_path),
        ])
        assert code == 0
        assert "GA convergence:" in capsys.readouterr().out
        assert csv_path.read_text().startswith("generation,")

    def test_simpoint_out_of_range(self):
        with pytest.raises(ValueError, match="simpoint"):
            main([
                "obs", "analyze",
                "--benchmark", "429.mcf", "--simpoint", "99",
                "--length", "500",
            ])


class TestServe:
    ARGS = ["serve", "--keys", "512", "--accesses", "20000",
            "--sets", "64", "--assoc", "8"]

    def test_small_run_writes_report_and_final_status(self, tmp_path,
                                                      capsys):
        from repro.obs.status import read_status
        from repro.serve import ServingSpec, run_serving

        report_path = tmp_path / "serving.json"
        status_path = tmp_path / "status.json"
        code = main(self.ARGS + ["--report", str(report_path),
                                 "--status", str(status_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "amortized latency/access:" in out
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == "repro-serving-report/5"
        assert "slo" not in payload
        direct = run_serving(ServingSpec(keys=512, accesses=20000), 64, 8)
        assert payload["misses"] == direct.misses
        status = read_status(status_path)
        assert status["final"] is True
        assert status["phase"] == "done"
        assert status["accesses_done"] == 20000

    @pytest.mark.parametrize("flag", [
        ["--window", "4096"],
        ["--metrics-port", "0"],
        ["--events", "drift.jsonl"],
        ["--slo-p99-ms", "1"],
        ["--slo-min-hit-rate", "0.5"],
        ["--slo-max-shed", "0.1"],
        ["--slo-strict"],
    ])
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_obs_serve_metrics_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "serve-metrics", "snapshot.json"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_obs_top_is_not_a_subcommand(self, capsys):
        # `repro obs watch` renders a serving run's rows itself.
        with pytest.raises(SystemExit) as exc:
            main(["obs", "top", "--once", "status.json"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_obs_trend_is_not_a_subcommand(self, capsys):
        # The perf-trend history is gone; perfbench's alternating pairs
        # are the performance record.
        with pytest.raises(SystemExit) as exc:
            main(["obs", "trend"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
