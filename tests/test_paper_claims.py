"""The paper's claims at full scale, checked on one in-process campaign.

One full-scale E1–E9 campaign feeds three checks.  The first two come from
the benchmark's ``perfbench/bench_checks.py``, so each claim is written down
once:

* each of the nine rendered tables hashes to its reference digest;
* the tables show the shapes the paper claims: E1 lag within ε + 3τ + 5δ
  and flat in N, E5 recovery within τ + 5δ, the baselines growing with N
  (E2, E3, E8), and the rest of ``check_paper_shape``;
* ``benchmark_tables.txt`` holds exactly those nine tables.

The digest and shape checks run once per experiment, so a failure names the
table that broke; one more test catches a failure that names no experiment.
Safety is checked on every run: ``run_campaign`` raises on an unsafe one.
"""

import importlib.util
import os

import pytest

from repro.harness.campaign import run_campaign
from repro.harness.experiments import default_experiment_params

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_checks():
    path = os.path.join(ROOT, "perfbench", "bench_checks.py")
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_checks = _bench_checks()


EXPERIMENTS = [f"E{index}" for index in range(1, 10)]


def _experiment_of(failure):
    return failure.split(":", 1)[0]


def _failures_of(failures, experiment):
    return [failure for failure in failures if _experiment_of(failure) == experiment]


@pytest.fixture(scope="module")
def campaign():
    return run_campaign("full")


@pytest.fixture(scope="module")
def rendered(campaign):
    return bench_checks.rendered_tables(campaign.tables)


@pytest.fixture(scope="module")
def digest_failures(rendered):
    return bench_checks.check_reference_digests(rendered, "full")


@pytest.fixture(scope="module")
def shape_failures(campaign):
    tables = {table.experiment: table for table in campaign.tables}
    return bench_checks.check_paper_shape(tables, default_experiment_params())


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_table_matches_reference_digest(digest_failures, experiment):
    failures = _failures_of(digest_failures, experiment)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_table_shows_the_paper_shape(shape_failures, experiment):
    failures = _failures_of(shape_failures, experiment)
    assert not failures, "\n".join(failures)


def test_every_failure_names_an_experiment(digest_failures, shape_failures):
    unnamed = [failure for failure in digest_failures + shape_failures
               if _experiment_of(failure) not in EXPERIMENTS]
    assert not unnamed, "\n".join(unnamed)


def test_benchmark_tables_file_is_the_full_campaign(rendered):
    expected = "".join(rendered[experiment] + "\n" for experiment in EXPERIMENTS)
    with open(os.path.join(ROOT, "benchmark_tables.txt"), encoding="utf-8") as handle:
        assert handle.read() == expected
