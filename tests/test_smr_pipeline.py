"""The unified SMR pipeline: declarative tasks, executors, E9 parity.

The tentpole contract: SMR is a first-class workload family — declarative
:class:`SmrTask`\\ s run through the same executors as single-decree tasks,
parallel equals serial, and the registry-routed E9 produces byte-identical
tables (and replica digests) to the retired side harness that drove
``run_smr`` directly.
"""

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.consensus.values import RunOutcome
from repro.harness.executors import (
    ParallelExecutor,
    RunTask,
    SerialExecutor,
    SmrTask,
    execute_smr_task,
    execute_task,
    machine_factory_for,
)
from repro.harness.experiment import ResultSet, run_tasks, run_smr_tasks
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e9_smr_stable_case,
)
from repro.harness.tables import ExperimentTable
from repro.results import JsonlStore
from repro.results.record import record_for_task
from repro.smr.outcome import SmrOutcome, digest_string, snapshot_smr_outcome
from repro.smr.runner import run_smr
from repro.smr.workload import CommandSchedule, ScheduleSpec, uniform_schedule
from repro.workloads.registry import default_workload_registry
from repro.workloads.registry import SMR_WORKLOADS, is_smr_workload

from tests.helpers import make_scenario

PARAMS = default_experiment_params()


def stable_task(n=3, seed=1, commands=4, target_pid=None, **kwargs) -> SmrTask:
    return SmrTask(
        workload="smr-stable",
        workload_kwargs={"n": n, "params": PARAMS, "seed": seed, **kwargs},
        schedule=ScheduleSpec(num_commands=commands, start=10.0, interval=0.7,
                              target_pid=target_pid),
        tags={"seed": seed},
    )


class TestScheduleSpec:
    def test_uniform_matches_generator(self):
        spec = ScheduleSpec(num_commands=5, start=2.0, interval=0.5, target_pid=1)
        assert spec.to_schedule(3).entries == uniform_schedule(
            3, num_commands=5, start=2.0, interval=0.5, target_pid=1
        ).entries

    def test_explicit_entries(self):
        spec = ScheduleSpec(entries=((0, 1.0, "a", ("set", "k", "v")),))
        schedule = spec.to_schedule(2)
        assert schedule.for_pid(0) == [(1.0, "a", ("set", "k", "v"))]
        assert spec.total_commands == 1

    def test_modes_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ScheduleSpec(num_commands=2, entries=((0, 1.0, "a", "x"),))

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec(num_commands=-1)

    def test_entry_pid_validated_against_n(self):
        spec = ScheduleSpec(entries=((5, 1.0, "a", "x"),))
        with pytest.raises(ConfigurationError, match="out of range"):
            spec.to_schedule(3)

    def test_dict_round_trip(self):
        spec = ScheduleSpec(num_commands=5, start=2.0, interval=0.5, target_pid=1)
        assert ScheduleSpec.from_dict(spec.to_dict()) == spec
        explicit = ScheduleSpec(entries=((0, 1.0, "a", ("set", "k", "v")),))
        assert ScheduleSpec.from_dict(explicit.to_dict()) == explicit


class TestSmrWorkloadFamily:
    def test_every_smr_workload_is_registered(self):
        names = default_workload_registry().names()
        assert set(SMR_WORKLOADS) <= set(names)
        assert all(is_smr_workload(name) for name in SMR_WORKLOADS)
        assert not is_smr_workload("stable")

    def test_smr_stable_preserves_scenario_identity(self):
        """Same scenario name → same RNG fork → trace-identical runs."""
        via_registry = default_workload_registry().create(
            "smr-stable", n=5, params=PARAMS, seed=1
        )
        direct = make_scenario("stable", n=5, params=PARAMS, seed=1, max_time=400.0 * PARAMS.delta)
        assert via_registry.name == direct.name
        assert via_registry.config == direct.config

    @pytest.mark.parametrize("workload", SMR_WORKLOADS)
    def test_every_smr_workload_replicates_commands(self, workload):
        task = SmrTask(
            workload=workload,
            workload_kwargs={"n": 3, "params": PARAMS, "seed": 2},
            schedule=ScheduleSpec(num_commands=2, start=12.0, interval=1.0),
        )
        outcome = execute_smr_task(task)
        assert outcome.all_commands_learned_everywhere
        assert outcome.replicas_agree
        assert outcome.worst_global_latency() is not None


class TestExecutorIntegration:
    def test_execute_task_dispatches_on_kind(self):
        outcome = execute_task(stable_task())
        assert isinstance(outcome, SmrOutcome)

    def test_serial_executor_matches_direct_snapshot(self):
        task = stable_task()
        scenario = default_workload_registry().create(
            task.workload, **dict(task.workload_kwargs)
        )
        direct = snapshot_smr_outcome(
            run_smr(scenario, task.schedule.to_schedule(scenario.config.n)),
            workload=task.workload,
        )
        assert SerialExecutor().map([task]) == [direct]

    def test_parallel_equals_serial(self):
        tasks = [stable_task(seed=seed) for seed in (1, 2, 3)]
        serial = SerialExecutor().map(tasks)
        with ParallelExecutor(jobs=2) as pool:
            parallel = pool.map(tasks)
        assert parallel == serial

    def test_mixed_batches_execute_both_kinds(self):
        run = RunTask(protocol="modified-paxos", workload="stable",
                      workload_kwargs={"n": 3, "params": PARAMS, "seed": 1})
        smr = stable_task()
        outcomes = SerialExecutor().map([run, smr])
        assert outcomes[0].protocol == "modified-paxos"
        assert isinstance(outcomes[1], SmrOutcome)

    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown state machine"):
            machine_factory_for("bogus")

    def test_ledger_machine_runs(self):
        task = SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": 3, "params": PARAMS, "seed": 1},
            schedule=ScheduleSpec(num_commands=2, start=10.0, interval=0.7),
            machine="ledger",
        )
        outcome = execute_smr_task(task)
        assert outcome.replicas_agree and outcome.all_commands_learned_everywhere


class TestDigestSemantics:
    def test_replicas_agree_compares_values_not_reprs(self):
        """Digest agreement must not depend on repr formatting."""
        outcome = SmrOutcome(workload="w", n=2, ts=0.0, delta=1.0, seed=0,
                             digests={0: "abc", 1: "abc"})
        assert outcome.replicas_agree
        outcome.digests[1] = "abd"
        assert not outcome.replicas_agree

    def test_run_result_agreement_uses_equality(self):
        from repro.smr.runner import SmrRunResult

        result = SmrRunResult(scenario=None, schedule=CommandSchedule(), simulator=None)
        # 1 == 1.0 although repr(1) != repr(1.0): equal values must agree.
        result.digests = {0: (("k", 1),), 1: (("k", 1.0),)}
        assert result.replicas_agree
        result.digests = {0: (("k", 1),), 1: (("k", 2),)}
        assert not result.replicas_agree

    def test_digest_string_is_deterministic(self):
        value = (("a", 1), ("b", "x"))
        assert digest_string(value) == digest_string((("a", 1), ("b", "x")))
        assert digest_string(value) != digest_string((("a", 2), ("b", "x")))


class TestScheduleHorizonValidation:
    def test_submission_past_horizon_fails_loudly(self):
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1, max_time=20.0)
        schedule = CommandSchedule().add(0, 25.0, "late-cmd", ("set", "k", "v"))
        with pytest.raises(ConfigurationError, match="late-cmd") as excinfo:
            run_smr(scenario, schedule)
        assert "25" in str(excinfo.value) and "20" in str(excinfo.value)

    def test_submission_at_horizon_is_allowed(self):
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1, max_time=200.0)
        schedule = CommandSchedule().add(0, 12.0, "ok-cmd", ("set", "k", "v"))
        result = run_smr(scenario, schedule)
        assert result.all_commands_learned_everywhere


class TestLatencyErrorReporting:
    def test_empty_outcome_raises_naming_unlearned_commands(self):
        from repro.harness.experiments import _smr_latencies

        outcome = SmrOutcome(workload="w", n=3, ts=0.0, delta=1.0, seed=0,
                             expected_replicas=(0, 1, 2),
                             scheduled_command_ids=("cmd-0000", "cmd-0001"))
        with pytest.raises(ExperimentError, match="cmd-0000, cmd-0001"):
            _smr_latencies("case", outcome)

    def test_unlearned_ids_reports_partial_coverage(self):
        from repro.smr.metrics import CommandRecord

        outcome = SmrOutcome(
            workload="w", n=2, ts=0.0, delta=1.0, seed=0,
            expected_replicas=(0, 1),
            scheduled_command_ids=("a", "b"),
            commands={"a": CommandRecord(command_id="a", origin=0, submit_time=1.0,
                                         learned_times={0: 2.0, 1: 2.5})},
        )
        assert outcome.unlearned_command_ids() == ["b"]
        assert not outcome.all_commands_learned_everywhere


class TestE9Parity:
    """E9 through the unified pipeline equals the retired side harness."""

    N, STABLE, CHAOS = 5, 6, 3

    def side_harness_table(self) -> str:

        delta = PARAMS.delta
        table = ExperimentTable(
            experiment="E9",
            title=f"Multi-decree Modified Paxos (SMR, n={self.N}): per-command latency",
            headers=["case", "commands", "worst_submitter_latency_delta",
                     "worst_global_latency_delta"],
            notes=(
                "stable cases measure the phase-1-pre-executed fast path (leader ~3 message "
                "delays, follower +1 forwarding delay); the chaos case measures commands "
                "submitted before TS and replicated once the system stabilizes"
            ),
        )
        leader = run_smr(
            make_scenario("stable", n=self.N, params=PARAMS, seed=1, max_time=400.0 * delta),
            uniform_schedule(self.N, num_commands=self.STABLE, start=10.0, interval=0.7,
                             target_pid=self.N - 1),
        )
        table.add_row(case="stable, submitted at leader", commands=self.STABLE,
                      worst_submitter_latency_delta=leader.worst_submitter_latency() / delta,
                      worst_global_latency_delta=leader.worst_global_latency() / delta)
        follower = run_smr(
            make_scenario("stable", n=self.N, params=PARAMS, seed=2, max_time=400.0 * delta),
            uniform_schedule(self.N, num_commands=self.STABLE, start=10.0, interval=0.7,
                             target_pid=0),
        )
        table.add_row(case="stable, submitted at follower", commands=self.STABLE,
                      worst_submitter_latency_delta=follower.worst_submitter_latency() / delta,
                      worst_global_latency_delta=follower.worst_global_latency() / delta)
        chaos_scenario = make_scenario("partitioned-chaos", n=self.N, params=PARAMS,
                                                    ts=10.0 * delta, seed=3)
        chaos = run_smr(
            chaos_scenario,
            uniform_schedule(self.N, num_commands=self.CHAOS, start=1.0, interval=0.8,
                             target_pid=chaos_scenario.deciders()[0]),
        )
        worst_after_ts = max(
            max(record.learned_times.values()) - chaos_scenario.config.ts
            for record in chaos.commands.values()
        )
        table.add_row(case="pre-TS submissions, learned after TS", commands=self.CHAOS,
                      worst_submitter_latency_delta=None,
                      worst_global_latency_delta=worst_after_ts / delta)
        return table.render()

    def test_e9_table_byte_identical_to_side_harness(self):
        pipeline = experiment_e9_smr_stable_case(
            n=self.N, stable_commands=self.STABLE, chaos_commands=self.CHAOS, params=PARAMS
        ).render()
        assert pipeline == self.side_harness_table()

    def test_e9_parallel_equals_serial(self):
        serial = experiment_e9_smr_stable_case(
            n=self.N, stable_commands=self.STABLE, chaos_commands=self.CHAOS, params=PARAMS
        )
        with ParallelExecutor(jobs=3) as pool:
            parallel = experiment_e9_smr_stable_case(
                n=self.N, stable_commands=self.STABLE, chaos_commands=self.CHAOS,
                params=PARAMS, executor=pool,
            )
        assert parallel.render() == serial.render()

    def test_seeded_digests_identical_to_side_harness(self):
        delta = PARAMS.delta
        direct = run_smr(
            make_scenario("stable", n=self.N, params=PARAMS, seed=1, max_time=400.0 * delta),
            uniform_schedule(self.N, num_commands=self.STABLE, start=10.0, interval=0.7,
                             target_pid=self.N - 1),
        )
        outcome = execute_smr_task(SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": self.N, "params": PARAMS, "seed": 1},
            schedule=ScheduleSpec(num_commands=self.STABLE, start=10.0, interval=0.7,
                                  target_pid=self.N - 1),
        ))
        assert outcome.digests == {
            pid: digest_string(digest) for pid, digest in direct.digests.items()
        }
        assert outcome.prefix_lengths == direct.prefix_lengths


class TestSmrGrids:
    def test_smr_sweep_runs_and_tags_rows(self):
        # An SMR sweep is a list of SmrTasks, one per swept value.
        schedule = ScheduleSpec(num_commands=2, start=10.0, interval=0.7)
        rows = run_tasks([
            SmrTask(workload="smr-stable", schedule=schedule,
                    workload_kwargs={"params": PARAMS, "n": n, "seed": 1},
                    tags={"n": n, "seed": 1})
            for n in (3, 5)
        ])
        assert [row.tag("n") for row in rows] == [3, 5]
        assert all(row.outcome.all_commands_learned_everywhere for row in rows)

    def test_run_smr_tasks_rejects_executor_and_jobs(self):
        with pytest.raises(ExperimentError, match="not both"):
            run_tasks([stable_task()], executor=SerialExecutor(), jobs=2)

    def test_run_smr_tasks_is_the_one_pipeline(self):
        # Kept as a name only: the benchmark harness imports it.
        assert run_smr_tasks is run_tasks

    def test_empty_batch_gives_an_empty_result_set(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        results = run_tasks([], store=JsonlStore(path), resume=True, executor=NoExecution())
        assert isinstance(results, ResultSet) and len(results) == 0
        with JsonlStore(path) as store:
            assert list(store.records()) == []


class TestMixedKindPipeline:
    """One run_tasks call over run and SMR tasks: serial = parallel = resumed."""

    def tasks(self):
        return [
            RunTask(protocol="modified-paxos", workload="partitioned-chaos",
                    workload_kwargs={"n": 3, "params": PARAMS, "ts": 10.0, "seed": 1},
                    tags={"case": "chaos"}),
            stable_task(seed=1),
            RunTask(protocol="traditional-paxos", workload="stable",
                    workload_kwargs={"n": 3, "params": PARAMS, "seed": 2},
                    tags={"case": "stable"}),
            stable_task(seed=2, target_pid=0),
        ]

    @staticmethod
    def records(results):
        return [record_for_task(row.task, row.outcome).to_json() for row in results]

    def test_serial_parallel_and_resumed_runs_are_identical(self, tmp_path):
        tasks = self.tasks()
        serial = run_tasks(tasks)
        assert [type(row.outcome) for row in serial] == [
            RunOutcome, SmrOutcome, RunOutcome, SmrOutcome
        ]
        with ParallelExecutor(jobs=2) as pool:
            parallel = run_tasks(tasks, executor=pool)

        path = tmp_path / "mixed.jsonl"
        run_tasks(tasks, store=JsonlStore(path))
        resumed = run_tasks(tasks, store=JsonlStore(path), resume=True,
                            executor=NoExecution())

        for other in (parallel, resumed):
            assert [row.task for row in other] == tasks
            assert [row.outcome for row in other] == [row.outcome for row in serial]
            assert self.records(other) == self.records(serial)
        with JsonlStore(path) as store:
            assert [record.to_json() for record in store.records()] == self.records(serial)

    def test_partial_store_executes_only_the_missing_kind(self, tmp_path):
        tasks = self.tasks()
        path = tmp_path / "mixed.jsonl"
        run_tasks(tasks[:2], store=JsonlStore(path))
        executed = []

        class Recording(SerialExecutor):
            def imap(self, batch):
                executed.extend(batch)
                return super().imap(batch)

        resumed = run_tasks(tasks, store=JsonlStore(path), resume=True, executor=Recording())
        assert executed == tasks[2:]
        assert self.records(resumed) == self.records(run_tasks(tasks))


class NoExecution(SerialExecutor):
    """An executor for fully cached batches: executing anything is a test failure."""

    def imap(self, tasks):
        tasks = list(tasks)
        assert not tasks, f"resume executed {len(tasks)} cached tasks"
        return iter(())
