"""Declarative, composable run environments.

The paper's subject is how the *environment* — adversarial pre-``TS``
delivery, the stabilization time, crash/restart schedules — determines
consensus latency.  This package makes the environment a first-class,
serializable value: an :class:`EnvironmentSpec` bundles a synchrony spec, an
adversary spec (optionally nested), and a fault-schedule spec, all plain
data that round-trips through JSON.  The tables in
:mod:`repro.env.registry` name the available primitives
(:data:`~repro.env.registry.ADVERSARIES`,
:data:`~repro.env.registry.FAULTS`) and ready-made environments
(:data:`~repro.env.registry.ENVIRONMENTS`).  Workloads instantiate scenarios
*from* specs instead of hand-building networks, and every
:class:`~repro.consensus.values.RunOutcome` records the resolved spec so a
result is reproducible from its own metadata.
"""

from repro.env.registry import (
    ADVERSARIES,
    ENVIRONMENTS,
    FAULTS,
    AdversaryPrimitive,
    FaultPrimitive,
    environment,
)
from repro.env.spec import (
    AdversarySpec,
    EnvironmentSpec,
    FaultSpec,
    PartitionDecl,
    SynchronySpec,
)

__all__ = [
    "ADVERSARIES",
    "ENVIRONMENTS",
    "FAULTS",
    "AdversaryPrimitive",
    "AdversarySpec",
    "EnvironmentSpec",
    "FaultPrimitive",
    "FaultSpec",
    "PartitionDecl",
    "SynchronySpec",
    "environment",
]
