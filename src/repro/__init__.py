"""repro — reproduction of "How Fast Can Eventual Synchrony Lead to Consensus?".

Dutta, Guerraoui, Lamport (DSN 2005) show that consensus can be reached
within ``O(δ)`` seconds of the (unknown) time at which an eventually
synchronous system stabilizes — not the ``O(Nδ)`` that leader-driven Paxos
or rotating-coordinator algorithms need — using a leaderless, session-based
variant of Paxos.  This package implements that algorithm, the baselines the
paper argues against, the weak-ordering-oracle variant it sketches, and a
deterministic discrete-event simulator of the paper's system model, plus the
workloads, metrics, and experiment harness used to regenerate the paper's
timing analysis as measured tables.

Quick start — one run.  Workloads and protocols are both resolved by name
through registries; :func:`run_scenario` is the single-run primitive::

    from repro import default_workload_registry, run_scenario

    workloads = default_workload_registry()
    scenario = workloads.create("partitioned-chaos", n=5, seed=7)
    result = run_scenario(scenario, "modified-paxos")
    print(result.max_lag_after_ts())       # decision lag after TS

Quick start — an experiment grid.  :class:`ExperimentSpec` declares
protocols × workload parameters × seeds; ``jobs=N`` fans the runs out over
a process pool, and the returned :class:`ResultSet` supports filtering,
grouping, and summary statistics::

    from repro import ExperimentSpec, lag_delta, run_experiment

    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-paxos", "traditional-paxos"),
        seeds=(1, 2, 3),
        grid={"n": (5, 9, 15)},
    )
    results = run_experiment(spec, jobs=4)
    for (protocol, n), subset in results.group_by("protocol", "n").items():
        print(protocol, n, subset.max(lag_delta))

Quick start — durable results.  Pass ``store=`` to persist every run as a
schema-versioned :class:`RunRecord` under its content key, and
``resume=True`` to load any run already present instead of re-executing
it (see :mod:`repro.results`)::

    results = run_experiment(spec, store="runs.jsonl", resume=True)
    with open_store("runs.jsonl") as store:
        print(store.query(protocol="modified-paxos").summary(lag_delta))

``python -m repro list-workloads`` and ``python -m repro list-protocols``
print everything the registries know; ``python -m repro results ls
--store runs.jsonl`` inspects a store.
"""

from repro._version import __version__
from repro.consensus.registry import default_registry
from repro.core.modified_paxos import ModifiedPaxosBuilder, ModifiedPaxosProcess
from repro.env.spec import (
    AdversarySpec,
    EnvironmentSpec,
    FaultSpec,
    PartitionDecl,
    SynchronySpec,
)
from repro.core.timing import decision_bound, restart_decision_bound
from repro.harness.executors import (
    Executor,
    ParallelExecutor,
    RunTask,
    SerialExecutor,
    SmrTask,
    make_executor,
)
from repro.harness.experiment import (
    ExperimentSpec,
    ResultRow,
    ResultSet,
    lag_delta,
    run_experiment,
    run_tasks,
)
from repro.harness.runner import RunResult, run_scenario
from repro.params import TimingParams
from repro.results import (
    JsonlStore,
    MemoryStore,
    ResultStore,
    RunRecord,
    SmrRecord,
    SqliteStore,
    content_key_for_task,
    open_store,
)
from repro.smr.runner import run_smr
from repro.smr.workload import CommandSchedule, ScheduleSpec, uniform_schedule
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workloads.registry import (
    ScenarioRegistry,
    default_workload_registry,
    environment_scenario,
)
from repro.workloads.scenario import Scenario

__all__ = [
    "AdversarySpec",
    "CommandSchedule",
    "EnvironmentSpec",
    "Executor",
    "ExperimentSpec",
    "FaultSpec",
    "JsonlStore",
    "MemoryStore",
    "PartitionDecl",
    "SynchronySpec",
    "ModifiedPaxosBuilder",
    "ModifiedPaxosProcess",
    "ParallelExecutor",
    "ResultRow",
    "ResultSet",
    "ResultStore",
    "RunRecord",
    "RunResult",
    "RunTask",
    "SqliteStore",
    "Scenario",
    "ScenarioRegistry",
    "SerialExecutor",
    "ScheduleSpec",
    "SimulationConfig",
    "Simulator",
    "SmrRecord",
    "SmrTask",
    "TimingParams",
    "__version__",
    "content_key_for_task",
    "decision_bound",
    "default_registry",
    "default_workload_registry",
    "environment_scenario",
    "lag_delta",
    "make_executor",
    "open_store",
    "restart_decision_bound",
    "run_experiment",
    "run_scenario",
    "run_smr",
    "run_tasks",
    "uniform_schedule",
]
