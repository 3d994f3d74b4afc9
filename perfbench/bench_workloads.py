"""The benchmark's workloads: ``campaign``, ``smr-stream`` and ``campaign-resume``.

Every workload is a closed loop with one client: a pass starts only when the
previous one has returned, and everything runs in this process through the
serial executor.  All runs use ``default_experiment_params()`` (delta = 1,
rho = 1%, epsilon = 0.5 delta).

The workload seed shifts every experiment seed by ``SEED_STRIDE * seed``;
seed 0 reproduces ``campaign_plan(scale)`` exactly.  E9 takes no seed and
stays fixed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from bench_checks import (
    check_paper_shape,
    check_reference_digests,
    check_smr_outcome,
    rendered_tables,
)
from repro.harness.campaign import CampaignResult
from repro.harness.comparison import experiment_e8_protocol_comparison
from repro.harness.executors import Executor, SerialExecutor, SmrTask
from repro.harness.experiment import run_smr_tasks
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e1_modified_paxos_scaling,
    experiment_e2_traditional_obsolete,
    experiment_e3_rotating_coordinator,
    experiment_e4_modified_bconsensus,
    experiment_e5_restart_recovery,
    experiment_e6_epsilon_tradeoff,
    experiment_e7_stable_case,
    experiment_e9_smr_stable_case,
)
from repro.results.store import open_store
from repro.smr.outcome import SmrOutcome
from repro.smr.workload import ScheduleSpec

DEFAULT_SEED = 0
SEED_STRIDE = 1000

# The sizes of campaign_plan(scale), with the seeds each experiment runs at
# the default workload seed.
CAMPAIGN_SIZES: Dict[str, Dict[str, tuple]] = {
    "full": {
        "E1": (experiment_e1_modified_paxos_scaling,
               {"ns": (3, 5, 7, 9, 13, 17, 21, 25, 31), "seeds": (1, 2, 3)}),
        "E2": (experiment_e2_traditional_obsolete,
               {"ns": (5, 9, 13, 17, 21, 25, 31), "seeds": (1, 2)}),
        "E3": (experiment_e3_rotating_coordinator,
               {"n": 21, "faulty_counts": (0, 2, 4, 6, 8, 10), "seeds": (1, 2)}),
        "E4": (experiment_e4_modified_bconsensus,
               {"ns": (3, 5, 7, 9, 13, 17, 21), "seeds": (1, 2)}),
        "E5": (experiment_e5_restart_recovery,
               {"n": 9, "offsets": (5.0, 20.0, 40.0, 80.0), "seeds": (1, 2)}),
        "E6": (experiment_e6_epsilon_tradeoff,
               {"n": 9, "epsilons": (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0), "seeds": (1, 2)}),
        "E7": (experiment_e7_stable_case, {"n": 9, "seeds": (1, 2, 3)}),
        "E8": (experiment_e8_protocol_comparison, {"ns": (5, 9, 15), "seeds": (1,)}),
        "E9": (experiment_e9_smr_stable_case,
               {"n": 9, "stable_commands": 30, "chaos_commands": 10}),
    },
    "smoke": {
        "E1": (experiment_e1_modified_paxos_scaling, {"ns": (3, 5), "seeds": (1,)}),
        "E2": (experiment_e2_traditional_obsolete, {"ns": (5, 7), "seeds": (1,)}),
        "E3": (experiment_e3_rotating_coordinator,
               {"n": 7, "faulty_counts": (0, 2), "seeds": (1,)}),
        "E4": (experiment_e4_modified_bconsensus, {"ns": (3, 5), "seeds": (1,)}),
        "E5": (experiment_e5_restart_recovery, {"n": 5, "offsets": (5.0, 15.0), "seeds": (1,)}),
        "E6": (experiment_e6_epsilon_tradeoff, {"n": 5, "epsilons": (0.25, 1.0), "seeds": (1,)}),
        "E7": (experiment_e7_stable_case, {"n": 5, "seeds": (1,)}),
        "E8": (experiment_e8_protocol_comparison, {"ns": (5,), "seeds": (1,)}),
        "E9": (experiment_e9_smr_stable_case, {"n": 5, "stable_commands": 6, "chaos_commands": 3}),
    },
}

# smr-stream: one smr-stable run, n = 9, uniform `set` commands every 0.7 delta
# submitted at follower p0 (E9's follower case, longer).
SMR_COMMANDS = {"full": 100, "smoke": 10}
SMR_N = 9
SMR_BASE_SEED = 2


def campaign_plan_for(scale: str, seed: int, executor: Executor, store: Any,
                      resume: bool) -> Dict[str, Callable[[], Any]]:
    """``campaign_plan(scale)`` with every experiment seed shifted by the workload seed."""
    params = default_experiment_params()
    plan = {}
    for name, (experiment, sizes) in CAMPAIGN_SIZES[scale].items():
        kwargs = dict(sizes, executor=executor, store=store, resume=resume)
        kwargs["base_params" if name == "E6" else "params"] = params
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(s + SEED_STRIDE * seed for s in kwargs["seeds"])
        plan[name] = functools.partial(experiment, **kwargs)
    return plan


class OpExecutor(Executor):
    """The serial executor, timing each task (one op) and keeping its outcome."""

    name = "serial"

    def __init__(self, tracer: Optional[Any] = None) -> None:
        self._serial = SerialExecutor()
        self._tracer = tracer
        self.op_spans: List[Tuple[float, float]] = []
        self.outcomes: List[Any] = []

    def imap(self, tasks):
        for task in tasks:
            started = time.perf_counter()
            if self._tracer is None:
                outcome = self._serial.run(task)
            else:
                self._tracer.run_id += 1
                with self._tracer.span("harness.task"):
                    outcome = self._serial.run(task)
            self.op_spans.append((started, time.perf_counter()))
            self.outcomes.append(outcome)
            yield outcome


def outcome_failures(outcomes: List[Any]) -> List[str]:
    """Executed runs that were unsafe, left a command unlearned, or diverged."""
    failures = []
    for outcome in outcomes:
        if isinstance(outcome, SmrOutcome):
            failures += [f"{outcome.workload}: {command_id} unlearned"
                         for command_id in outcome.unlearned_command_ids()]
            if not outcome.replicas_agree:
                failures.append(f"{outcome.workload}: replica digests differ")
        elif not outcome.extra.get("safety_valid", False):
            failures.append(f"{outcome.protocol} n={outcome.n} seed={outcome.seed}: unsafe")
    return failures


def run_plan(plan: Dict[str, Callable[[], Any]], store: Any) -> tuple:
    """Run every experiment of ``plan`` in order, as ``run_campaign`` does.

    Returns the :class:`CampaignResult` and the experiments that raised; one
    experiment failing does not stop the others.
    """
    result = CampaignResult(scale="", store=store)
    failures = []
    for name in sorted(plan):
        started = time.perf_counter()
        try:
            table = plan[name]()
        except Exception as error:  # counted as a failed op; the pass goes on
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{name}: {type(error).__name__}: {error}")
            continue
        result.durations[name] = time.perf_counter() - started
        result.tables.append(table)
    store.flush()
    return result, failures


@dataclass
class PassResult:
    """One pass of a workload: its host time, its ops and what failed."""

    started: float
    seconds: float
    ops: int
    failures: List[str]
    op_spans: List[Tuple[float, float]] = field(default_factory=list)
    outcomes: List[Any] = field(default_factory=list)
    durations: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.ops)


class Workload:
    """Shared shape: ``build`` makes the inputs, ``run_pass`` runs one pass."""

    name = ""
    # How often set-up times ``build`` (its median counts).
    build_repeats = 5

    def __init__(self, scale: str, seed: int, workdir: str) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.setup_failures: List[str] = []

    def build(self) -> None:
        """Make the workload's inputs (timed as part of set-up)."""

    def run_pass(self, tracer: Optional[Any] = None) -> PassResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Remove what the passes left behind."""

    def op_samples(self, passes: List[PassResult]) -> List[Tuple[float, float, int]]:
        """(start, end, ops) intervals whose time per op samples ``op_ms_p50``/``p90``."""
        return [(p.started, p.started + p.seconds, p.ops) for p in passes]

    def events(self, passes: List[PassResult]) -> int:
        """Simulated events the passes processed."""
        return sum(o.extra["events"] for p in passes for o in p.outcomes)

    def delta_outcomes(self, passes: List[PassResult]) -> List[Any]:
        """The outcomes the simulated-time (``_delta``) metrics are taken from."""
        return passes[0].outcomes

    @contextmanager
    def timed(self, tracer: Optional[Any], clock: List[float]) -> Iterator[None]:
        """Put the block's start and duration in ``clock``; traced, it is a ``harness.pass`` span."""
        started = time.perf_counter()
        if tracer is None:
            yield
        else:
            with tracer.span("harness.pass"):
                yield
        clock += [started, time.perf_counter() - started]

    def store_path(self, label: str) -> str:
        return os.path.join(self.workdir, f"{self.name}-{label}.jsonl")

    def remove_store(self, path: str) -> None:
        for stale in (path, path + ".index.json"):
            if os.path.exists(stale):
                os.remove(stale)


class CampaignWorkload(Workload):
    """Full E1-E9 campaign into a fresh JsonlStore; op = one simulation run."""

    name = "campaign"

    def campaign_pass(self, path: str, tracer: Optional[Any] = None) -> tuple:
        """One campaign pass into a fresh store at ``path``; (PassResult, rendered tables)."""
        self.remove_store(path)
        executor = OpExecutor(tracer)
        clock: List[float] = []
        with self.timed(tracer, clock):
            store = open_store(path)
            plan = campaign_plan_for(self.scale, self.seed, executor, store, resume=False)
            result, failures = run_plan(plan, store)
            rendered = rendered_tables(result.tables)
            store.close()
        ops = len(executor.op_spans) + len(failures)
        failures += outcome_failures(executor.outcomes)
        if self.seed == DEFAULT_SEED:
            failures += check_reference_digests(rendered, self.scale)
        if self.scale == "full":
            tables = {table.experiment: table for table in result.tables}
            failures += check_paper_shape(tables, default_experiment_params())
        return PassResult(*clock, ops=max(ops, 1), failures=failures,
                          op_spans=executor.op_spans, outcomes=executor.outcomes,
                          durations=result.durations), rendered

    def run_pass(self, tracer: Optional[Any] = None) -> PassResult:
        return self.campaign_pass(self.store_path("pass"), tracer)[0]

    def op_samples(self, passes: List[PassResult]) -> List[Tuple[float, float, int]]:
        return [(start, end, 1) for p in passes for start, end in p.op_spans]

    def finish(self) -> None:
        self.remove_store(self.store_path("pass"))


class ResumeWorkload(CampaignWorkload):
    """Re-render all nine tables from a stored campaign; op = one resume pass."""

    name = "campaign-resume"
    build_repeats = 1
    op_samples = Workload.op_samples  # one op per pass

    def build(self) -> None:
        # The campaign pass whose records every resume pass reads.
        self.path = self.store_path("store")
        self.written, self.rendered = self.campaign_pass(self.path)
        self.setup_failures = list(self.written.failures)

    def run_pass(self, tracer: Optional[Any] = None) -> PassResult:
        executor = OpExecutor(tracer)
        clock: List[float] = []
        with self.timed(tracer, clock):
            store = open_store(self.path)
            plan = campaign_plan_for(self.scale, self.seed, executor, store, resume=True)
            result, failures = run_plan(plan, store)
            rendered = rendered_tables(result.tables)
            store.close()
        if executor.op_spans:
            failures.append(f"{len(executor.op_spans)} cache misses executed runs")
        if rendered != self.rendered:
            failures.append("resumed tables differ from the stored campaign's")
        return PassResult(*clock, ops=1, failures=failures, durations=result.durations)

    def events(self, passes: List[PassResult]) -> int:
        # The simulated events the loaded records stand for.
        return len(passes) * sum(o.extra["events"] for o in self.written.outcomes)

    def delta_outcomes(self, passes: List[PassResult]) -> List[Any]:
        """Every outcome in the store, decoded (outside any timed region)."""
        store = open_store(self.path)
        try:
            return [record.to_outcome() for record in store.records()]
        finally:
            store.close()

    def finish(self) -> None:
        self.remove_store(self.path)


class SmrStreamWorkload(Workload):
    """One smr-stable SMR run of many commands; op = one command learned everywhere."""

    name = "smr-stream"

    def build(self) -> None:
        params = default_experiment_params()
        self.task = SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": SMR_N, "params": params,
                             "seed": SMR_BASE_SEED + SEED_STRIDE * self.seed},
            schedule=ScheduleSpec(num_commands=SMR_COMMANDS[self.scale], start=10.0,
                                  interval=0.7, target_pid=0),
        )
        schedule = self.task.schedule.to_schedule(SMR_N)
        self.commands = {command_id: command
                         for entries in schedule.entries.values()
                         for _, command_id, command in entries}

    def run_pass(self, tracer: Optional[Any] = None) -> PassResult:
        executor = OpExecutor(tracer)
        clock: List[float] = []
        failures: List[str] = []
        with self.timed(tracer, clock):
            try:
                run_smr_tasks([self.task], executor=executor)
            except Exception as error:  # counted as failed ops
                traceback.print_exc(file=sys.stderr)
                failures.append(f"smr-stream: {type(error).__name__}: {error}")
        for outcome in executor.outcomes:
            failures += check_smr_outcome(outcome, self.commands)
        if not executor.outcomes and not failures:
            failures.append("smr-stream: no outcome")
        return PassResult(*clock, ops=len(self.commands), failures=failures,
                          outcomes=executor.outcomes)


WORKLOADS = {cls.name: cls for cls in (CampaignWorkload, SmrStreamWorkload, ResumeWorkload)}
