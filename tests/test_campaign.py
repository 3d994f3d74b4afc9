"""Tests for the campaign runner (`repro.harness.campaign`) at smoke scale."""

import importlib
import os

import pytest

from repro.harness.campaign import campaign_plan, run_campaign, write_report
from repro.harness.executors import SerialExecutor
from repro.harness.experiments import default_experiment_params
from repro.results.store import MemoryStore

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPlan:
    def test_smoke_and_full_cover_all_nine_experiments(self):
        assert sorted(campaign_plan("smoke")) == [f"E{i}" for i in range(1, 10)]
        assert sorted(campaign_plan("full")) == [f"E{i}" for i in range(1, 10)]

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            campaign_plan("enormous")

    @pytest.mark.parametrize("scale", ["smoke", "full"])
    def test_plan_matches_the_benchmark_sizes(self, scale, monkeypatch):
        """perfbench's CAMPAIGN_SIZES at seed 0 is exactly campaign_plan(scale)."""
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        bench_workloads = importlib.import_module("bench_workloads")
        executor, store = SerialExecutor(), MemoryStore()
        plan = campaign_plan(scale, executor=executor, store=store, resume=True)
        bench_plan = bench_workloads.campaign_plan_for(scale, 0, executor, store, True)
        sizes = bench_workloads.CAMPAIGN_SIZES[scale]
        assert list(plan) == list(sizes) == list(bench_plan)
        for name, (experiment, kwargs) in sizes.items():
            call = plan[name]
            assert call.func is experiment is bench_plan[name].func
            params = "base_params" if name == "E6" else "params"
            assert call.keywords == dict(
                kwargs, executor=executor, store=store, resume=True,
                **{params: default_experiment_params()},
            )
            assert call.keywords == bench_plan[name].keywords


class TestRun:
    def test_selected_experiments_only(self):
        messages = []
        result = run_campaign(scale="smoke", experiments=["E7"], progress=messages.append)
        assert [table.experiment for table in result.tables] == ["E7"]
        assert "E7" in result.durations
        assert messages and "E7" in messages[0]
        assert result.table("E7").rows

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(scale="smoke", experiments=["E42"])

    def test_table_lookup_missing(self):
        result = run_campaign(scale="smoke", experiments=["E7"])
        with pytest.raises(KeyError):
            result.table("E1")


class TestReport:
    def test_write_report_produces_files(self, tmp_path):
        result = run_campaign(scale="smoke", experiments=["E7", "E3"])
        report = write_report(result, str(tmp_path))
        assert os.path.exists(report)
        assert (tmp_path / "E7.txt").exists()
        assert (tmp_path / "E3.txt").exists()
        content = (tmp_path / "experiments_report.md").read_text()
        assert "E7" in content and "E3" in content
        assert "```" in content
