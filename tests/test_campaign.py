"""Tests for the campaign runner (`repro.harness.campaign`) at smoke scale."""

import os

import pytest

from repro.harness.campaign import campaign_plan, run_campaign, write_report


class TestPlan:
    def test_smoke_and_full_cover_all_nine_experiments(self):
        assert sorted(campaign_plan("smoke")) == [f"E{i}" for i in range(1, 10)]
        assert sorted(campaign_plan("full")) == [f"E{i}" for i in range(1, 10)]

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            campaign_plan("enormous")


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
