"""Run one SMR scenario end to end.

The single-decree harness (:mod:`repro.harness.runner`) stops when every
process has *decided*; the SMR layer instead stops when every expected
replica has learned every scheduled command (or the horizon is reached), and
its safety check is per-slot log consistency plus identical state-machine
digests rather than the single-decree spec.  The stop is event-driven: the
:class:`~repro.smr.multi_paxos.MultiPaxosSmrBuilder` counts down the missing
(command, replica) pairs as replicas learn, crash and restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.analysis.invariants import InvariantReport, check_session_entry_rule
from repro.errors import ConfigurationError
from repro.sim.clock import ClockConfig
from repro.sim.simulator import Simulator
from repro.smr.metrics import (
    CommandRecord,
    check_log_consistency,
    command_latencies,
    digests_agree,
    learned_prefix_lengths,
    replica_digests,
    worst_global_latency,
    worst_submitter_latency,
)
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.state_machine import KeyValueStore
from repro.smr.workload import CommandSchedule
from repro.workloads.scenario import Scenario

__all__ = ["SmrRunResult", "run_smr"]


@dataclass
class SmrRunResult:
    """Everything produced by one SMR run."""

    scenario: Scenario
    schedule: CommandSchedule
    simulator: Simulator
    commands: Dict[str, CommandRecord] = field(default_factory=dict)
    prefix_lengths: Dict[int, int] = field(default_factory=dict)
    digests: Dict[int, object] = field(default_factory=dict)
    consistency_checks: int = 0
    invariants: Dict[str, InvariantReport] = field(default_factory=dict)

    @property
    def all_commands_learned_everywhere(self) -> bool:
        expected = set(self.scenario.deciders())
        return all(
            expected.issubset(record.learned_times.keys()) for record in self.commands.values()
        ) and len(self.commands) == self.schedule.total_commands

    @property
    def replicas_agree(self) -> bool:
        return digests_agree(self.digests)

    def worst_submitter_latency(self) -> Optional[float]:
        return worst_submitter_latency(self.commands)

    def worst_global_latency(self) -> Optional[float]:
        return worst_global_latency(self.commands)


def _validate_schedule_horizon(schedule: CommandSchedule, max_time: float, rho: float) -> None:
    """Reject schedules whose submissions may land past the scenario horizon.

    Submit times are local clock readings; on the slowest admissible clock
    (rate 1 − ρ) local time ``t`` is reached only at real time ``t / (1 − ρ)``.
    A submission timer that may fire after ``max_time`` may never fire, so the
    command would silently never run (and never show up in the metrics);
    fail loudly with the offending command instead.
    """
    clock = ClockConfig(rho=rho)
    for pid, entries in sorted(schedule.entries.items()):
        for submit_at, command_id, _ in entries:
            latest = clock.real_upper_bound(submit_at)
            if latest > max_time:
                raise ConfigurationError(
                    f"command {command_id!r} is scheduled at p{pid} local time "
                    f"{submit_at:g}, which a clock drifting by rho={rho:g} reaches only "
                    f"at real time {latest:g}, past the scenario horizon "
                    f"max_time={max_time:g}; it could silently never be submitted — "
                    "extend max_time or move the submission earlier"
                )


def run_smr(
    scenario: Scenario,
    schedule: CommandSchedule,
    *,
    machine_factory: Callable[[], object] = KeyValueStore,
    enforce_consistency: bool = True,
) -> SmrRunResult:
    """Execute the multi-decree Modified Paxos service under ``scenario``."""
    config = scenario.config
    _validate_schedule_horizon(schedule, config.max_time, config.params.rho)
    builder = MultiPaxosSmrBuilder(schedule=schedule, replicas=scenario.deciders())
    simulator = scenario.build_simulator(builder)
    simulator.run()

    result = SmrRunResult(
        scenario=scenario,
        schedule=schedule,
        simulator=simulator,
        commands=command_latencies(simulator),
        prefix_lengths=learned_prefix_lengths(simulator),
        digests=replica_digests(simulator, machine_factory),
        invariants={
            "session-entry-rule": check_session_entry_rule(simulator.trace, config.n)
        },
    )
    result.consistency_checks = check_log_consistency(simulator)
    if enforce_consistency:
        result.invariants["session-entry-rule"].raise_if_violated()
    return result
