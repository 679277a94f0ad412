"""Tests for the benchmark summary table (CI step-summary generator)."""

import json

import pytest

from benchmarks.summarize import (
    headline_metrics,
    main,
    serving_engine_ratio,
    summarize,
    tail_latency_ms,
)


@pytest.fixture
def results_dir(tmp_path):
    (tmp_path / "BENCH_alpha.json").write_text(
        json.dumps(
            {
                "smoke": True,
                "provenance": {"commit": "abc1234", "seed": 1},
                "publish": {"serial_seconds": 2.0, "parallel_speedup": 3.5},
                "batch_query": {"sharded_qps": 12345.6, "queries": 2000},
            }
        )
    )
    (tmp_path / "BENCH_beta.json").write_text(
        json.dumps(
            {
                "smoke": False,
                "provenance": {"commit": "def5678"},
                "ingest": {"streaming_rows_per_s": 5_000_000.0},
            }
        )
    )
    return tmp_path


class TestHeadlineMetrics:
    def test_prefers_speedups_then_qps(self, results_dir):
        payload = json.loads((results_dir / "BENCH_alpha.json").read_text())
        metrics = headline_metrics(payload)
        assert metrics[0] == ("publish.parallel_speedup", 3.5)
        assert ("batch_query.sharded_qps", 12345.6) in metrics

    def test_ignores_provenance_and_non_metrics(self, results_dir):
        payload = json.loads((results_dir / "BENCH_alpha.json").read_text())
        paths = [path for path, _ in headline_metrics(payload)]
        assert all("seed" not in path for path in paths)
        assert all("seconds" not in path for path in paths)
        assert all("queries" not in path.rsplit(".", 1)[-1] for path in paths)

    def test_rows_per_s_counts(self, results_dir):
        payload = json.loads((results_dir / "BENCH_beta.json").read_text())
        assert headline_metrics(payload) == [
            ("ingest.streaming_rows_per_s", 5_000_000.0)
        ]


class TestServingEngineRatio:
    def test_finds_nested_leaf(self):
        payload = {
            "provenance": {"serving_vs_engine_qps_ratio": 9.9},
            "columnar": {"serving_vs_engine_qps_ratio": 0.88},
        }
        assert serving_engine_ratio(payload) == 0.88

    def test_none_when_absent(self, results_dir):
        payload = json.loads((results_dir / "BENCH_alpha.json").read_text())
        assert serving_engine_ratio(payload) is None


class TestTailLatencyMs:
    def test_worst_p99_across_runs_in_ms(self):
        payload = {
            "provenance": {"p99_latency_seconds": 99.0},  # ignored
            "runs": [
                {"workers": 1, "p50_ms": 1.0, "p99_ms": 4.25},
                {"workers": 4, "p50_ms": 0.5, "p99_ms": 9.75},
            ],
        }
        assert tail_latency_ms(payload) == 9.75

    def test_seconds_leaves_convert_to_ms(self):
        payload = {"serving": {"p99_latency_seconds": 0.0125}}
        assert tail_latency_ms(payload) == pytest.approx(12.5)

    def test_mixed_units_compare_in_ms(self):
        payload = {
            "a": {"p99_ms": 3.0},
            "b": {"p99_latency_seconds": 0.001},  # 1 ms, not the worst
        }
        assert tail_latency_ms(payload) == 3.0

    def test_none_when_absent(self, results_dir):
        payload = json.loads((results_dir / "BENCH_alpha.json").read_text())
        assert tail_latency_ms(payload) is None

    def test_unitless_p99_leaves_are_skipped(self):
        assert tail_latency_ms({"x": {"p99": 7.0}}) is None


class TestSummarize:
    def test_table_shape_and_content(self, results_dir):
        table = summarize(results_dir.glob("BENCH_*.json"))
        lines = table.strip().splitlines()
        assert lines[0] == "## Benchmark summary"
        assert lines[2] == (
            "| benchmark | headline | serving/engine qps | worst p99 "
            "| mode | commit |"
        )
        assert any(
            line.startswith("| alpha |") and "3.50x" in line and "abc1234" in line
            for line in lines
        )
        assert any(
            line.startswith("| beta |") and "5,000,000" in line and "full" in line
            for line in lines
        )

    def test_serving_engine_ratio_column(self, results_dir):
        (results_dir / "BENCH_gamma.json").write_text(
            json.dumps(
                {
                    "smoke": False,
                    "provenance": {"commit": "aaa0000"},
                    "columnar": {
                        "columnar_qps_at_256": 28_000.0,
                        "serving_vs_engine_qps_ratio": 0.88,
                    },
                }
            )
        )
        table = summarize(results_dir.glob("BENCH_*.json"))
        gamma = next(
            line for line in table.splitlines() if line.startswith("| gamma |")
        )
        assert "| 0.88 |" in gamma
        # Benchmarks that do not measure the ratio leave the cell blank.
        alpha = next(
            line for line in table.splitlines() if line.startswith("| alpha |")
        )
        assert "| — |" in alpha

    def test_worst_p99_column(self, results_dir):
        (results_dir / "BENCH_delta.json").write_text(
            json.dumps(
                {
                    "smoke": False,
                    "provenance": {"commit": "bbb1111"},
                    "runs": [
                        {"qps": 1000.0, "p99_ms": 2.5},
                        {"qps": 4000.0, "p99_ms": 6.5},
                    ],
                }
            )
        )
        table = summarize(results_dir.glob("BENCH_*.json"))
        delta = next(
            line for line in table.splitlines() if line.startswith("| delta |")
        )
        assert "| 6.50 ms |" in delta
        # Benchmarks without a p99 leave the cell blank.
        alpha = next(
            line for line in table.splitlines() if line.startswith("| alpha |")
        )
        assert alpha.split(" | ")[-3] == "—"

    def test_unreadable_file_is_flagged_not_fatal(self, results_dir):
        (results_dir / "BENCH_broken.json").write_text("{not json")
        table = summarize(results_dir.glob("BENCH_*.json"))
        assert "| broken | unreadable:" in table

    def test_empty_directory(self, tmp_path):
        table = summarize(tmp_path.glob("BENCH_*.json"))
        assert "_none found_" in table


class TestMain:
    def test_writes_to_step_summary(self, results_dir, tmp_path, monkeypatch, capsys):
        target = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
        assert main([str(results_dir)]) == 0
        written = target.read_text()
        assert "## Benchmark summary" in written
        assert written == capsys.readouterr().out

    def test_stdout_without_env(self, results_dir, monkeypatch, capsys):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert main([str(results_dir)]) == 0
        assert "| alpha |" in capsys.readouterr().out


class TestBenchSmokeSwitch:
    def test_consolidated_switch(self, monkeypatch):
        from benchmarks.conftest import bench_smoke

        monkeypatch.delenv("BENCH_SMOKE", raising=False)
        assert bench_smoke() is False
        monkeypatch.setenv("BENCH_SMOKE", "1")
        assert bench_smoke() is True
        monkeypatch.setenv("BENCH_SMOKE", "0")
        assert bench_smoke() is False
