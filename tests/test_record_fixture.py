"""Stored records written by an earlier release must stay readable and keyed.

``tests/data/records_v1.jsonl`` holds one E1-style :class:`RunRecord`, one
E5 :class:`RunRecord` with restart events and lags, and one E9
:class:`SmrRecord`, each produced by executing the matching task below and
serialized with ``to_json``.  Every line must decode and re-encode byte for
byte, and the tasks must still derive the stored content keys — otherwise
an existing store would silently stop serving resumed campaigns.
"""

from pathlib import Path

import pytest

from repro.harness.executors import RunTask, SmrTask, execute_task
from repro.params import TimingParams
from repro.results import JsonlStore, RunRecord, SmrRecord
from repro.results.record import content_key_for_task, decode_record_json, record_for_task
from repro.smr.workload import ScheduleSpec

FIXTURE = Path(__file__).parent / "data" / "records_v1.jsonl"
PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)

# The tasks whose execution produced the fixture lines, in file order.
TASKS = [
    RunTask(protocol="modified-paxos", workload="partitioned-chaos",
            workload_kwargs={"params": PARAMS, "ts": 10.0, "n": 3, "seed": 1},
            tags={"n": 3, "protocol": "modified-paxos", "seed": 1}),
    RunTask(protocol="modified-paxos", workload="restarts",
            workload_kwargs={"n": 5, "params": PARAMS, "restart_offsets": [5.0, 15.0],
                             "seed": 1},
            tags={"protocol": "modified-paxos", "seed": 1}),
    SmrTask(workload="smr-stable", workload_kwargs={"n": 5, "params": PARAMS, "seed": 1},
            schedule=ScheduleSpec(num_commands=6, start=10.0, interval=0.7, target_pid=4),
            tags={"case": "leader-submitted", "seed": 1}),
]


def fixture_lines():
    return FIXTURE.read_text(encoding="utf-8").splitlines()


def test_fixture_holds_one_line_per_task():
    assert len(fixture_lines()) == len(TASKS)


@pytest.mark.parametrize("index", range(len(TASKS)))
def test_line_decodes_and_reencodes_byte_for_byte(index):
    line = fixture_lines()[index]
    record = decode_record_json(line)
    assert type(record) is (SmrRecord if isinstance(TASKS[index], SmrTask) else RunRecord)
    assert record.to_json() == line
    assert type(record).from_json(line) == record


@pytest.mark.parametrize("index", range(len(TASKS)))
def test_tasks_still_derive_the_stored_keys(index):
    record = decode_record_json(fixture_lines()[index])
    assert content_key_for_task(TASKS[index]) == record.key


@pytest.mark.parametrize("index", range(len(TASKS)))
def test_fresh_execution_reproduces_the_stored_line(index):
    task = TASKS[index]
    assert record_for_task(task, execute_task(task)).to_json() == fixture_lines()[index]


def test_restart_extras_survive_the_round_trip():
    outcome = decode_record_json(fixture_lines()[1]).to_outcome()
    assert outcome.extra["restart_events"]
    assert all(isinstance(event, tuple) for event in outcome.extra["restart_events"])
    assert outcome.extra["restart_lags"]
    assert all(isinstance(pid, int) for pid in outcome.extra["restart_lags"])


def test_store_opened_on_the_fixture_serves_every_task(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text(FIXTURE.read_text(encoding="utf-8"), encoding="utf-8")
    with JsonlStore(path) as store:
        for task, line in zip(TASKS, fixture_lines()):
            assert store.get(content_key_for_task(task)).to_json() == line
