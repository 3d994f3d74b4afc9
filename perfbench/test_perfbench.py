"""The benchmark's own test: smoke-sized runs of every workload.

Run with ``python -m pytest perfbench``.  Every run must print every metric
``BENCHMARK.json`` names, with its unit, and a corrupted reference digest or
a corrupted SMR command must fail the run and count in ``failed``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench_checks
import bench_workloads
import run as bench_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = _result(completed.stdout)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    if trace:
        assert result["metrics"]["harness.self_s"]["value"] >= 0.0
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_corrupted_reference_digest_fails(monkeypatch, capsys):
    monkeypatch.setitem(bench_checks.REFERENCE_SHA256["smoke"], "E3", "0" * 64)
    code = bench_run.main(["--workload", "campaign", "--scale", "smoke", "--seconds", "0"])
    result = _result(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_corrupted_smr_command_fails(monkeypatch, capsys):
    build = bench_workloads.SmrStreamWorkload.build

    def corrupting_build(self):
        build(self)
        self.commands["cmd-0003"] = ("set", "key-3", "corrupted")

    monkeypatch.setattr(bench_workloads.SmrStreamWorkload, "build", corrupting_build)
    code = bench_run.main(["--workload", "smr-stream", "--scale", "smoke", "--seconds", "0"])
    result = _result(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("campaign", 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not completed.stdout.strip()
