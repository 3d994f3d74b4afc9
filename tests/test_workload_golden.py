"""Every registered workload must keep building the scenario it always built.

``tests/data/workload_scenarios.json`` records, for each workload at
``n ∈ {3, 5, 9}`` with its default kwargs and with one non-default kwarg
set, the parts of the built :class:`~repro.workloads.scenario.Scenario` that
reach a run: the name (it seeds the network RNG fork), the configuration,
the environment dict (it feeds content keys and records), the notes, the
expected deciders, the fault plan and the post-``TS`` crash allowance.
``tests/data/list_workloads_params.txt`` is the output of
``repro list-workloads --params`` (names, summaries, parameters, defaults
and help text).  ``tests/data/list_environments.txt`` and
``tests/data/list_environments.json`` are the outputs of
``repro list-environments`` and ``repro list-environments --json``: every
named environment with its summary and serialized spec, and every adversary
and fault primitive, so an entry that is dropped or silently overwritten
shows up as a diff.  All are rebuilt here and compared byte for byte.

To regenerate the files after a deliberate change::

    PYTHONPATH=src python tests/test_workload_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.cli import main
from repro.params import TimingParams
from repro.workloads.registry import default_workload_registry

DATA = Path(__file__).parent / "data"
SCENARIOS = DATA / "workload_scenarios.json"
LISTING = DATA / "list_workloads_params.txt"
ENV_LISTINGS = {
    DATA / "list_environments.txt": ["list-environments"],
    DATA / "list_environments.json": ["list-environments", "--json"],
}

SIZES = (3, 5, 9)

# One non-default kwarg set per workload.  ``params`` is given as the
# TimingParams fields so the cases stay JSON-serializable.
NON_DEFAULT: Dict[str, Dict[str, Any]] = {
    "asymmetric-link": {"ts": 7.0, "seed": 2, "hub": 1, "direction": "to",
                        "slow_factor": 2.5, "slow_post_ts": False},
    "churn": {"params": {"delta": 2.0}, "waves": 2, "up_time": 2.0, "down_time": 1.5,
              "first_offset": 1.0, "num_victims": 1},
    "coordinator-crash": {"ts": 3.0, "num_faulty": 1, "seed": 4},
    "environment": {"env": {"name": "inline", "adversary": {"kind": "drop-all"},
                            "faults": {"kind": "crash-forever",
                                       "params": {"pids": [0], "time": 1.0}}},
                    "ts": 6.0, "max_time": 90.0},
    "gray-partition": {"heal_start": 0.2, "end_drop": 0.1, "with_crashes": True, "seed": 5},
    "kitchen-sink": {"params": {"delta": 0.5}, "defer_probability": 0.5,
                     "duplicate_prob": 0.2, "late_restart_offset": 6.0},
    "lossy-chaos": {"drop_probability": 0.5, "defer_probability": 0.1,
                    "with_crashes": False, "seed": 6},
    "obsolete-ballots": {"num_obsolete": 1, "ballot_stride": 500,
                         "poll_interval_factor": 0.1, "ts": 4.0},
    "partitioned-chaos": {"ts": 12.0, "with_crashes": False, "leak_probability": 0.2,
                          "worst_case_post_delays": True, "seed": 7},
    "restarts": {"restart_offsets": [3.0, 7.0], "max_time": 150.0},
    "smr-asymmetric-link": {"hub": 2, "direction": "from", "slow_factor": 3.0},
    "smr-chaos": {"params": {"delta": 2.0}, "with_crashes": False,
                  "leak_probability": 0.1, "seed": 8},
    "smr-churn": {"waves": 1, "up_time": 0.5, "down_time": 3.0, "first_offset": 4.0},
    "smr-gray-partition": {"heal_start": 0.6, "end_drop": 0.05, "with_crashes": True},
    "smr-stable": {"params": {"delta": 0.5}, "seed": 9, "max_time": 120.0},
    "stable": {"params": {"delta": 2.0}, "seed": 3, "max_time": 50.0},
}

# Required kwargs that the default case must still supply.
REQUIRED: Dict[str, Dict[str, Any]] = {"environment": {"env": "churn"}}


def _kwargs(case: Dict[str, Any], n: int) -> Dict[str, Any]:
    kwargs = dict(case, n=n)
    if "params" in kwargs:
        kwargs["params"] = TimingParams(**kwargs["params"])
    return kwargs


def _snapshot(name: str, case: Dict[str, Any], n: int) -> Dict[str, Any]:
    scenario = default_workload_registry().create(name, **_kwargs(case, n))
    config = scenario.config
    return {
        "workload": name,
        "kwargs": dict(case, n=n),
        "name": scenario.name,
        "config": {"n": config.n, "ts": config.ts, "max_time": config.max_time,
                   "seed": config.seed, "delta": config.params.delta},
        "environment": scenario.environment.to_dict(),
        "notes": scenario.notes,
        "deciders": scenario.deciders(),
        "faults": scenario.fault_plan.describe(),
        "allow_post_ts_crashes": scenario.allow_post_ts_crashes,
    }


def build_scenarios() -> List[Dict[str, Any]]:
    snapshots = []
    for name in default_workload_registry().names():
        for case in (REQUIRED.get(name, {}), NON_DEFAULT[name]):
            for n in SIZES:
                snapshots.append(_snapshot(name, case, n))
    return snapshots


def render_scenarios() -> str:
    return json.dumps(build_scenarios(), indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def cli_output(argv: List[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def render_listing() -> str:
    return cli_output(["list-workloads", "--params"])


def test_every_workload_has_a_non_default_case():
    assert sorted(NON_DEFAULT) == default_workload_registry().names()


def test_scenarios_match_the_golden_fixture():
    expected = json.loads(SCENARIOS.read_text(encoding="utf-8"))
    actual = build_scenarios()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert json.loads(json.dumps(got)) == want, (want["workload"], want["kwargs"])
    assert render_scenarios() == SCENARIOS.read_text(encoding="utf-8")


def test_list_workloads_params_matches_the_golden_listing():
    assert render_listing() == LISTING.read_text(encoding="utf-8")


def test_list_environments_matches_the_golden_listings():
    for path, argv in ENV_LISTINGS.items():
        assert cli_output(argv) == path.read_text(encoding="utf-8"), path.name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_workload_golden.py --write")
    SCENARIOS.write_text(render_scenarios(), encoding="utf-8")
    LISTING.write_text(render_listing(), encoding="utf-8")
    for path, argv in ENV_LISTINGS.items():
        path.write_text(cli_output(argv), encoding="utf-8")
