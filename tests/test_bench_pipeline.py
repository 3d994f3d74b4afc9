"""Tests for the benchmark pipeline (`repro.harness.bench` + the CLI gate)."""

import json
import os

import pytest

from repro.cli import main
from repro.harness import bench
from repro.harness.bench import (
    PRIMARY_METRICS,
    attach_baseline,
    compare_to_baseline,
    find_latest_baseline,
    kernel_event_loop,
    kernel_event_queue,
    kernel_network,
    kernel_result_store,
    kernel_trace,
    ungated_kernels,
)


def make_artifact(rate: float) -> dict:
    return {
        "schema": "repro-bench/1",
        "kernels": {
            name: {metric: rate, "wall_s": 1.0} for name, metric in PRIMARY_METRICS.items()
        },
    }


class TestComparator:
    def test_equal_rates_pass(self):
        assert compare_to_baseline(make_artifact(100.0), make_artifact(100.0)) == []

    def test_small_dip_within_tolerance_passes(self):
        assert compare_to_baseline(make_artifact(85.0), make_artifact(100.0)) == []

    def test_large_regression_fails(self):
        regressions = compare_to_baseline(make_artifact(70.0), make_artifact(100.0))
        assert len(regressions) == len(PRIMARY_METRICS)
        assert "event_loop_trace_off" in " ".join(regressions)

    def test_improvement_passes(self):
        assert compare_to_baseline(make_artifact(300.0), make_artifact(100.0)) == []

    def test_missing_kernels_are_skipped(self):
        current = make_artifact(50.0)
        committed = make_artifact(100.0)
        committed["kernels"] = {}  # e.g. an artifact predating these kernels
        assert compare_to_baseline(current, committed) == []

    def test_kernels_in_only_one_artifact_are_reported_ungated(self):
        current = make_artifact(100.0)
        committed = make_artifact(100.0)
        current["kernels"]["new_kernel"] = {"events_per_sec": 1.0}
        committed["kernels"]["retired_kernel"] = {"events_per_sec": 1.0}
        del committed["kernels"]["smr_serial"]
        assert ungated_kernels(current, committed) == [
            "new_kernel", "retired_kernel", "smr_serial"
        ]
        # The gate's verdict is unchanged: ungated kernels neither pass nor fail it.
        assert compare_to_baseline(current, committed) == []

    def test_matching_artifacts_have_no_ungated_kernels(self):
        assert ungated_kernels(make_artifact(1.0), make_artifact(2.0)) == []

    def test_custom_tolerance(self):
        assert compare_to_baseline(make_artifact(55.0), make_artifact(100.0), tolerance=0.5) == []
        assert compare_to_baseline(make_artifact(45.0), make_artifact(100.0), tolerance=0.5)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_to_baseline(make_artifact(1.0), make_artifact(1.0), tolerance=1.5)

    def test_accepts_bare_kernel_mappings(self):
        bare = make_artifact(100.0)["kernels"]
        assert compare_to_baseline(bare, bare) == []


class TestBaselineEmbedding:
    def test_attach_baseline_computes_speedups(self):
        current = make_artifact(300.0)
        attach_baseline(current, make_artifact(100.0), note="seed")
        assert current["baseline"]["note"] == "seed"
        assert current["speedup"]["event_loop_trace_off"] == 3.0

    def test_find_latest_baseline_picks_newest_name(self, tmp_path):
        (tmp_path / "BENCH_PR2.json").write_text("{}")
        (tmp_path / "BENCH_PR5.json").write_text("{}")
        assert find_latest_baseline(str(tmp_path)).endswith("BENCH_PR5.json")

    def test_find_latest_baseline_sorts_numerically(self, tmp_path):
        # Lexicographic sort would pick PR9 over PR10.
        (tmp_path / "BENCH_PR9.json").write_text("{}")
        (tmp_path / "BENCH_PR10.json").write_text("{}")
        assert find_latest_baseline(str(tmp_path)).endswith("BENCH_PR10.json")

    def test_find_latest_baseline_empty_dir(self, tmp_path):
        assert find_latest_baseline(str(tmp_path)) is None


class TestKernels:
    """Tiny-sized sanity runs: every kernel reports a positive rate."""

    def test_event_loop_kernel(self):
        stats = kernel_event_loop(False, events=2_000, repeats=1)
        assert stats["events"] == 2_000
        assert stats["events_per_sec"] > 0

    def test_network_kernel_counts_envelopes(self):
        stats = kernel_network(False, record_envelopes=False, max_time=5.0, repeats=1)
        assert stats["envelopes"] > 0
        assert stats["envelopes_per_sec"] > 0

    def test_event_queue_kernel(self):
        stats = kernel_event_queue(n_events=2_000, repeats=1)
        assert stats["ops"] == 4_000
        assert stats["ops_per_sec"] > 0

    def test_trace_kernel(self):
        stats = kernel_trace(records=2_000, repeats=1)
        assert stats["records_per_sec"] > 0

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_result_store_kernel(self, backend):
        stats = kernel_result_store(backend, records=50, repeats=1)
        assert stats["backend"] == backend
        assert stats["records"] == 50
        assert stats["records_per_sec"] > 0

    def test_result_store_kernels_are_gated(self):
        assert PRIMARY_METRICS["result_store_jsonl"] == "records_per_sec"
        assert PRIMARY_METRICS["result_store_sqlite"] == "records_per_sec"


class TestBenchCli:
    @pytest.fixture
    def tiny_bench(self, monkeypatch):
        """Avoid full kernel runs in CLI tests: return a canned artifact."""
        artifact = make_artifact(100.0)

        def fake_run_bench(quick=False, label=""):
            result = json.loads(json.dumps(artifact))
            result["label"] = label
            result["quick"] = quick
            return result

        monkeypatch.setattr(bench, "run_bench", fake_run_bench)
        return artifact

    def test_bench_writes_artifact(self, tiny_bench, tmp_path, capsys):
        out = tmp_path / "BENCH_TEST.json"
        assert main(["bench", "--quick", "--label", "test", "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["label"] == "test"
        assert written["quick"] is True
        assert "kernels" in written

    def test_bench_check_passes_against_equal_baseline(self, tiny_bench, tmp_path):
        (tmp_path / "BENCH_OLD.json").write_text(json.dumps(tiny_bench))
        assert main(["bench", "--quick", "--check", "--baseline-dir", str(tmp_path)]) == 0

    def test_bench_check_prints_ungated_kernels(self, tiny_bench, tmp_path, capsys):
        committed = json.loads(json.dumps(tiny_bench))
        committed["kernels"]["retired_kernel"] = {"events_per_sec": 1.0}
        (tmp_path / "BENCH_OLD.json").write_text(json.dumps(committed))
        assert main(["bench", "--quick", "--check", "--baseline-dir", str(tmp_path)]) == 0
        assert "ungated (in only one artifact): retired_kernel" in capsys.readouterr().out

    def test_bench_check_fails_on_regression(self, tiny_bench, tmp_path):
        (tmp_path / "BENCH_OLD.json").write_text(json.dumps(make_artifact(1000.0)))
        assert main(["bench", "--quick", "--check", "--baseline-dir", str(tmp_path)]) == 1

    def test_bench_check_without_baseline_is_not_an_error(self, tiny_bench, tmp_path):
        assert main(["bench", "--quick", "--check", "--baseline-dir", str(tmp_path)]) == 0

    def test_bench_embeds_baseline_file(self, tiny_bench, tmp_path):
        baseline_path = tmp_path / "seed.json"
        baseline_path.write_text(json.dumps(make_artifact(50.0)))
        out = tmp_path / "BENCH_NEW.json"
        assert main(["bench", "--quick", "--out", str(out),
                     "--baseline-file", str(baseline_path)]) == 0
        written = json.loads(out.read_text())
        assert written["speedup"]["event_loop_trace_off"] == 2.0


class TestCommittedArtifact:
    """The repository must carry committed BENCH_*.json artifacts."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def test_bench_pr2_artifact_exists_with_target_speedup(self):
        path = os.path.join(self.ROOT, "BENCH_PR2.json")
        assert os.path.exists(path), "the PR2 artifact is missing"
        data = json.loads(open(path).read())
        assert data["kernels"]["event_loop_trace_off"]["events_per_sec"] > 0
        assert "baseline" in data, "artifact must embed the pre-refactor baseline"
        # The PR2 acceptance target: >= 3x events/sec on the trace-disabled
        # event-loop kernel, measured against the recorded baseline.
        assert data["speedup"]["event_loop_trace_off"] >= 3.0

    def test_latest_artifact_gates_every_kernel(self):
        path = find_latest_baseline(self.ROOT)
        assert path is not None, "no committed BENCH_*.json artifact"
        kernels = json.loads(open(path).read())["kernels"]
        for name, metric in PRIMARY_METRICS.items():
            assert kernels.get(name, {}).get(metric, 0) > 0, f"{name} is not gated"
