"""The scenario abstraction shared by all workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.env.spec import EnvironmentSpec
from repro.faults.plan import FaultPlan
from repro.net.network import Network
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

__all__ = ["Scenario"]

PostSetupHook = Callable[[Simulator], None]


@dataclass
class Scenario:
    """Everything one simulation run needs, minus the protocol.

    A scenario instantiates a declarative
    :class:`~repro.env.spec.EnvironmentSpec`: the environment supplies both
    the network and the fault plan, and is recorded in every outcome so
    results are reproducible from their own metadata.

    Attributes:
        name: Short identifier used in tables and traces.
        config: The simulation configuration (n, timing constants, ts, seed).
        environment: Declarative environment the run instantiates.
        initial_values: Proposals per process; None lets the simulator use
            its defaults (distinct per-process values).
        post_setup: Optional hook run after the simulator is built but before
            it starts — used to inject in-flight pre-``TS`` messages.
        expected_deciders: Pids expected to decide; None means every process
            that is not left permanently crashed by the fault plan.
        allow_post_ts_crashes: Relax the paper's no-failures-after-``TS``
            assumption when validating the fault plan (set automatically for
            churn environments).
        notes: Free-form description used in reports.
        fault_plan: Crash/restart schedule built from ``environment``,
            validated against the config at construction and again when the
            simulator is built.
    """

    name: str
    config: SimulationConfig
    environment: EnvironmentSpec
    initial_values: Optional[List[Any]] = None
    post_setup: Optional[PostSetupHook] = None
    expected_deciders: Optional[List[int]] = None
    allow_post_ts_crashes: bool = False
    notes: str = ""
    fault_plan: FaultPlan = field(init=False)

    def __post_init__(self) -> None:
        self.fault_plan = self.environment.build_fault_plan(self.config)
        if self.environment.allows_post_ts_crashes():
            self.allow_post_ts_crashes = True
        self._validate_fault_plan()

    def _validate_fault_plan(self) -> None:
        config = self.config
        self.fault_plan.validate(
            config.n, ts=config.ts, allow_post_ts_crashes=self.allow_post_ts_crashes
        )

    def build_network(self, config: SimulationConfig, rng: SeededRng) -> Network:
        """Build the environment's network (synchrony model + adversary)."""
        return self.environment.build_network(config, rng)

    def build_simulator(self, builder: Any, *, record_envelopes: bool = True) -> Simulator:
        """Set up one run of ``builder``'s protocol under this scenario.

        Builds the network on its own randomness stream (forked from the
        seed by scenario name), the simulator, and the builder's processes;
        then validates and applies the fault plan and runs the post-setup
        hook.  ``record_envelopes`` keeps the network's per-envelope log.
        """
        config = self.config
        network = self.build_network(config, SeededRng(config.seed, label="net").fork(self.name))
        network.record_envelopes = record_envelopes
        simulator = Simulator(
            config=config,
            process_factory=builder.create,
            network=network,
            initial_values=self.initial_values,
        )
        builder.attach(simulator)
        # Checked again here: ``fault_plan`` is a public field that callers
        # may replace after construction.
        self._validate_fault_plan()
        self.fault_plan.apply(simulator)
        if self.post_setup is not None:
            self.post_setup(simulator)
        return simulator

    def deciders(self) -> List[int]:
        """Pids expected to decide in this scenario."""
        if self.expected_deciders is not None:
            return sorted(self.expected_deciders)
        down_forever = self.fault_plan.final_down()
        return [pid for pid in range(self.config.n) if pid not in down_forever]

    def describe(self) -> str:
        lines = [
            f"scenario {self.name}: n={self.config.n} ts={self.config.ts:g} "
            f"seed={self.config.seed} ({self.config.params.describe()})",
            f"  faults: {self.fault_plan.describe()}",
        ]
        lines.append(f"  environment: {self.environment.describe()}")
        if self.notes:
            lines.append(f"  notes: {self.notes}")
        return "\n".join(lines)
