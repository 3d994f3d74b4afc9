"""The SMR run's cost stays linear in its command count, with unchanged results.

Three kinds of guard, none of which times anything:

* golden records — the event count and the SHA-256 of the ``SmrRecord`` of
  fixed SMR runs, recorded when the run still stopped by polling a predicate
  after every event; the event-driven stop must end each run at the same
  event, including while an expected replica is down;
* persistence shape — every stable-storage write of a replica carries at
  most one log or accepted slot, and the writes per learned
  (command, replica) pair do not grow with the log;
* stop predicates — neither ``run_smr`` nor ``run_scenario`` passes a
  ``stop_when`` predicate to the event loop.
"""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.harness.executors import SmrTask, execute_smr_task
from repro.harness.runner import run_scenario
from repro.results.smr_record import SmrRecord
from repro.sim.simulator import Simulator
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.outcome import snapshot_smr_outcome
from repro.smr.runner import run_smr
from repro.smr.workload import CommandSchedule, ScheduleSpec, uniform_schedule
from repro.storage.stable import StableStore

from tests.helpers import make_params, make_scenario

PARAMS = make_params(rho=0.01)

# (events processed, SHA-256 of SmrRecord.to_json()) per workload: n = 5,
# seed 4, 15 commands from t = 6 every 0.7, round-robin over the replicas.
GOLDEN_WORKLOAD_RECORDS = {
    "smr-stable": (2385, "9037f0799283fa76b30bbbc497565e613548d22eb9c510f5436a955538b431e7"),
    "smr-chaos": (1852, "f235957d3012768accb0285f542af80f2e32e51a753a9c721017a7a1fec79f46"),
    "smr-churn": (1167, "fbea470b7a433b93baf57070da361afc18d39efbb961c1c12e83ebe47de6e97a"),
    "smr-gray-partition": (
        1960, "efe5bdd50d21336c5d6ff61fe5ab76afc6b060af3bdc66af91812dae503ee714"),
    "smr-asymmetric-link": (
        2520, "d7a0c93b56baccf19c48f06b2083d13716e69431ad28c1db40a28d57b1189ea0"),
}
# The crash-then-restart-after-TS run of tests/test_smr_integration.py: every
# live replica learns every command long before p2 restarts, so the run must
# wait for p2 to come back and catch up.
GOLDEN_RESTART_RECORD = (1755, "17e03437309f5117c84a6aab260fbc3ff38dce55bccd8ca2f518a6864c8a2fb6")


def record_digest(outcome, workload: str) -> str:
    record = SmrRecord.from_outcome(outcome, workload=workload, key="golden")
    return hashlib.sha256(record.to_json().encode()).hexdigest()


class TestGoldenRecords:
    @pytest.mark.parametrize("workload", sorted(GOLDEN_WORKLOAD_RECORDS))
    def test_workload_record_unchanged(self, workload):
        task = SmrTask(
            workload=workload,
            workload_kwargs={"n": 5, "seed": 4, "params": PARAMS},
            schedule=ScheduleSpec(num_commands=15, start=6.0, interval=0.7),
        )
        outcome = execute_smr_task(task)
        events, digest = GOLDEN_WORKLOAD_RECORDS[workload]
        assert outcome.extra["events"] == events
        assert record_digest(outcome, workload) == digest

    def test_restart_after_ts_record_unchanged(self):
        scenario = make_scenario("partitioned-chaos", n=5, params=PARAMS, ts=8.0, seed=9, with_crashes=False)
        scenario.fault_plan = FaultPlan().crash(2, 2.0).restart(2, 23.0)
        schedule = uniform_schedule(5, num_commands=6, start=1.0, interval=1.0, target_pid=0)
        result = run_smr(scenario, schedule)
        events, digest = GOLDEN_RESTART_RECORD
        assert result.simulator.events_processed == events
        assert record_digest(snapshot_smr_outcome(result), "restart") == digest
        # The stop came after p2's restart, not when the live replicas caught up.
        assert result.simulator.now() > 23.0


def run_counting_writes(num_commands):
    """Run smr-stable and return (every StableStore.update payload, learned pairs)."""
    writes = []
    original = StableStore.update

    def update(self, values):
        writes.append(dict(values))
        return original(self, values)

    scenario = make_scenario("smr-stable", n=5, params=PARAMS, seed=3)
    schedule = uniform_schedule(5, num_commands=num_commands, start=10.0, interval=0.7)
    StableStore.update = update
    try:
        result = run_smr(scenario, schedule)
    finally:
        StableStore.update = original
    assert result.all_commands_learned_everywhere
    pairs = sum(len(record.learned_times) for record in result.commands.values())
    return writes, pairs


def slot_keys(values):
    return [key for key in values if key.startswith(("proto:log/", "proto:accepted/"))]


class TestPersistenceIsPerSlot:
    def test_each_write_carries_at_most_one_slot(self):
        writes, _ = run_counting_writes(20)
        assert writes
        assert all(len(slot_keys(values)) <= 1 for values in writes)
        assert all(len(values) == 1 for values in writes)

    def test_writes_per_learned_pair_do_not_grow_with_the_log(self):
        small_writes, small_pairs = run_counting_writes(20)
        large_writes, large_pairs = run_counting_writes(40)
        assert large_pairs == 2 * small_pairs

        def split(writes):
            slot_writes = sum(1 for values in writes if slot_keys(values))
            return slot_writes, len(writes) - slot_writes

        small_slot, small_ballot = split(small_writes)
        large_slot, large_ballot = split(large_writes)
        assert small_slot / small_pairs == large_slot / large_pairs
        assert small_ballot == large_ballot


class TestNoStopPredicate:
    @pytest.fixture
    def stop_predicates(self, monkeypatch):
        seen = []
        original = Simulator.run

        def run(sim, until=None, stop_when=None, max_events=None):
            seen.append(stop_when)
            return original(sim, until, stop_when, max_events)

        monkeypatch.setattr(Simulator, "run", run)
        return seen

    def test_run_smr_polls_no_predicate(self, stop_predicates):
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1, max_time=200.0)
        result = run_smr(scenario, uniform_schedule(3, num_commands=4, start=10.0, interval=1.0))
        assert result.all_commands_learned_everywhere
        assert stop_predicates == [None]

    def test_run_scenario_polls_no_predicate(self, stop_predicates):
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1)
        result = run_scenario(scenario, "modified-paxos")
        assert sorted(result.simulator.decisions) == [0, 1, 2]
        assert stop_predicates == [None]


class TestCountdown:
    def test_countdown_stops_when_every_pair_is_learned(self):
        schedule = CommandSchedule().add(0, 1.0, "a", ("set", "k", 1)).add(1, 1.0, "b", ("noop",))
        builder = MultiPaxosSmrBuilder(schedule=schedule, replicas=[0, 1])
        stops = []
        builder.simulator = type("StubSimulator", (), {"request_stop": lambda self: stops.append(1)})()
        builder.count_learned(0, "a")
        builder.count_learned(0, "a")  # a duplicate slot counts once
        builder.count_learned(0, "noop-3-1")  # not a scheduled command
        builder.count_learned(2, "a")  # not an expected replica
        builder.count_learned(0, "b")
        builder.count_learned(1, "a")
        builder.count_crashed(0)  # p0's pairs are missing again
        builder.count_learned(1, "b")
        assert stops == []
        builder.count_learned(0, "a")
        builder.count_learned(0, "b")
        assert stops == [1]

    def test_no_commands_runs_to_the_horizon(self):
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1, max_time=40.0)
        result = run_smr(scenario, CommandSchedule())
        assert result.simulator.now() <= 40.0
        assert result.simulator.now() > 39.0


class TestScheduleHorizonWithDrift:
    def test_submission_just_under_horizon_may_never_fire(self):
        # Local time 19.9 < max_time 20, but a clock running at 1 - rho = 0.99
        # reaches it only at real time ~20.1, after the run ends.
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1, max_time=20.0)
        schedule = CommandSchedule().add(0, 19.9, "drifting-cmd", ("set", "k", "v"))
        with pytest.raises(ConfigurationError, match="drifting-cmd"):
            run_smr(scenario, schedule)

    def test_submission_reachable_on_the_slowest_clock_is_allowed(self):
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1, max_time=40.0)
        schedule = CommandSchedule().add(0, 39.6, "ok-cmd", ("set", "k", "v"))
        run_smr(scenario, schedule)
