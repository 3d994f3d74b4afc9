"""Experiment harness: run scenarios, declare experiment grids, render tables.

Layers, bottom-up:

* :mod:`repro.harness.runner` — :func:`run_scenario`, the single-run
  primitive (one scenario, one protocol, full :class:`RunResult`).
* :mod:`repro.harness.executors` — declarative :class:`RunTask`\\ s and
  :class:`SmrTask`\\ s executed by a :class:`SerialExecutor` or a
  process-pool :class:`ParallelExecutor`.
* :mod:`repro.harness.experiment` — :func:`run_tasks`, the one
  task → executor → record → store pipeline for both task kinds;
  :class:`ExperimentSpec` grids (a one-axis grid is a sweep); and the
  queryable :class:`ResultSet`.
* :mod:`repro.harness.experiments` / :mod:`repro.harness.comparison` /
  :mod:`repro.harness.campaign` — the paper's E1–E9 tables built on the
  layers above.
"""

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
from repro.harness.tables import ExperimentTable, render_table

__all__ = [
    "Executor",
    "ExperimentSpec",
    "ExperimentTable",
    "ParallelExecutor",
    "ResultRow",
    "ResultSet",
    "RunResult",
    "RunTask",
    "SerialExecutor",
    "SmrTask",
    "lag_delta",
    "make_executor",
    "render_table",
    "run_experiment",
    "run_scenario",
    "run_tasks",
]
