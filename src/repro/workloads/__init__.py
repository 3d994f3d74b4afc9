"""Workloads: the named scenarios the experiments run.

A :class:`repro.workloads.scenario.Scenario` bundles everything one run
needs apart from the protocol: the simulation configuration, the
environment (network adversary + fault plan), the initial values, an
optional post-setup hook (used to inject in-flight pre-``TS`` messages),
and which processes are expected to decide.

Every named workload is one :class:`~repro.workloads.registry.WorkloadSpec`
entry in the table :data:`~repro.workloads.registry.WORKLOADS`; build one
with ``default_workload_registry().create(name, n=..., ...)``.
"""

from repro.workloads.registry import (
    SMR_WORKLOADS,
    WORKLOADS,
    ScenarioRegistry,
    WorkloadSpec,
    default_workload_registry,
    environment_scenario,
    is_smr_workload,
)
from repro.workloads.scenario import Scenario

__all__ = [
    "SMR_WORKLOADS",
    "WORKLOADS",
    "Scenario",
    "ScenarioRegistry",
    "WorkloadSpec",
    "default_workload_registry",
    "environment_scenario",
    "is_smr_workload",
]
