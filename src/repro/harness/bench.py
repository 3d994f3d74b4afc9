"""The persistent benchmark pipeline: kernels, macro run, JSON artifact, comparator.

``python -m repro bench`` runs a set of microkernels over the simulator's hot
paths (the event loop proper, the network send/deliver path, the raw event
queue, and the trace recorder) plus one E1-style macro experiment, and writes
the numbers to a ``BENCH_*.json`` artifact::

    python -m repro bench --out BENCH_PR2.json --label PR2
    python -m repro bench --quick --check          # CI regression gate

Every artifact records events/sec (or the kernel's natural rate), wall time,
and the process's peak RSS.  The comparator (``--check``) loads the most
recent committed ``BENCH_*.json`` and fails if any kernel's rate dropped more
than ``--tolerance`` (default 20%) below the recorded value, which turns the
committed artifact into a perf regression baseline that travels with the
repository.  ``--baseline-file`` embeds an earlier measurement (for example
the pre-refactor kernels) into the artifact together with the computed
speedups, so the perf trajectory stays inspectable PR over PR.

Kernels deliberately exercise *disjoint* layers:

``event_loop``
    A single self-rescheduling event — no messages, no timers.  Measures the
    queue push / pop-dispatch cycle and nothing else; the trace-disabled
    variant is the headline "events/sec" number.
``network``
    Nine processes flooding broadcasts on a short timer.  Measures the full
    send → fate → schedule → deliver path (envelopes/sec); variants toggle
    tracing and the per-envelope log.
``event_queue``
    Raw ``EventQueue`` push/pop without a simulator.
``trace_record``
    ``TraceRecorder.record`` throughput with realistic field payloads.
``result_store_jsonl`` / ``result_store_sqlite``
    :class:`~repro.results.store.JsonlStore` / ``SqliteStore`` write +
    query round trips over realistic :class:`~repro.results.record.RunRecord`
    payloads, so the artifact tracks persistence overhead next to the
    simulation rates.
``smr_serial`` / ``smr_parallel``
    A batch of declarative :class:`~repro.harness.executors.SmrTask`\\ s
    (multi-decree Modified Paxos under a uniform command stream) executed
    through the :class:`~repro.harness.executors.SerialExecutor` and the
    process-pool :class:`~repro.harness.executors.ParallelExecutor`, in
    commands/sec — the end-to-end rate of the unified SMR pipeline, with the
    parallel variant also paying (and amortizing) pool spin-up.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import tempfile
import time
from glob import glob
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.trace import TraceRecorder
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.params import TimingParams
from repro.sim.events import EventQueue
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

__all__ = [
    "BENCH_SCHEMA",
    "PRIMARY_METRICS",
    "compare_to_baseline",
    "find_latest_baseline",
    "kernel_result_store",
    "kernel_smr",
    "run_bench",
    "ungated_kernels",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/1"

# kernel name -> the rate metric the comparator gates on (higher is better).
PRIMARY_METRICS: Dict[str, str] = {
    "event_loop_trace_off": "events_per_sec",
    "network_trace_off": "envelopes_per_sec",
    "network_trace_on_logged": "envelopes_per_sec",
    "event_queue": "ops_per_sec",
    "trace_record": "records_per_sec",
    "result_store_jsonl": "records_per_sec",
    "result_store_sqlite": "records_per_sec",
    "smr_serial": "commands_per_sec",
    "smr_parallel": "commands_per_sec",
}


def _best_of(repeats: int, run: Callable[[], Tuple[float, Dict[str, Any]]]) -> Dict[str, Any]:
    """Run ``run`` ``repeats`` times, keep the stats of the fastest pass."""
    best_wall: Optional[float] = None
    best_stats: Dict[str, Any] = {}
    for _ in range(repeats):
        wall, stats = run()
        if best_wall is None or wall < best_wall:
            best_wall, best_stats = wall, stats
    assert best_wall is not None
    return {**best_stats, "wall_s": best_wall}


class _IdleProcess(Process):
    """Does nothing; host for the pure event-loop kernel."""

    def on_start(self) -> None:
        pass

    def on_message(self, message, sender) -> None:
        pass

    def on_timer(self, name: str) -> None:
        pass


class _GossipProcess(Process):
    """Floods a broadcast on a short timer; host for the network kernel."""

    def on_start(self) -> None:
        self.ctx.set_timer("tick", 0.5)

    def on_message(self, message, sender) -> None:
        pass

    def on_timer(self, name: str) -> None:
        from repro.core.messages import Phase1a

        self.ctx.broadcast(Phase1a(mbal=self.ctx.pid))
        self.ctx.set_timer("tick", 0.5)


def kernel_event_loop(
    trace_enabled: bool = False, events: int = 200_000, repeats: int = 5
) -> Dict[str, Any]:
    """Pure scheduling chain: one self-rescheduling event, no messages."""
    params = TimingParams(delta=1.0, rho=0.0, epsilon=0.5)

    def run() -> Tuple[float, Dict[str, Any]]:
        config = SimulationConfig(
            n=1, params=params, ts=0.0, seed=1,
            max_time=float(events), trace_enabled=trace_enabled,
        )
        network = Network(model=EventualSynchrony(ts=0.0, delta=1.0), rng=SeededRng(1))
        sim = Simulator(config, lambda pid: _IdleProcess(), network)
        fired = 0

        def tick() -> None:
            nonlocal fired
            fired += 1
            if fired < events:
                sim.schedule_in(0.001, tick, cancellable=False)

        sim.schedule_in(0.0, tick)
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        return wall, {"events": events, "events_per_sec": 0.0}

    result = _best_of(repeats, run)
    result["events_per_sec"] = result["events"] / result["wall_s"]
    return result


def kernel_network(
    trace_enabled: bool = False,
    record_envelopes: bool = False,
    n: int = 9,
    max_time: float = 60.0,
    repeats: int = 5,
) -> Dict[str, Any]:
    """Broadcast gossip over the real network path."""
    params = TimingParams(delta=1.0, rho=0.0, epsilon=0.5)

    def run() -> Tuple[float, Dict[str, Any]]:
        config = SimulationConfig(
            n=n, params=params, ts=0.0, seed=1,
            max_time=max_time, trace_enabled=trace_enabled,
        )
        network = Network(
            model=EventualSynchrony(ts=0.0, delta=1.0),
            rng=SeededRng(1),
            record_envelopes=record_envelopes,
        )
        sim = Simulator(config, lambda pid: _GossipProcess(), network)
        start = time.perf_counter()
        sim.run(until=max_time)
        wall = time.perf_counter() - start
        return wall, {
            "envelopes": network.monitor.stats.sent,
            "events": sim.events_processed,
            "envelopes_per_sec": 0.0,
            "events_per_sec": 0.0,
        }

    result = _best_of(repeats, run)
    result["envelopes_per_sec"] = result["envelopes"] / result["wall_s"]
    result["events_per_sec"] = result["events"] / result["wall_s"]
    return result


def kernel_event_queue(n_events: int = 200_000, repeats: int = 5) -> Dict[str, Any]:
    """Raw EventQueue push/pop without a simulator."""

    def run() -> Tuple[float, Dict[str, Any]]:
        queue = EventQueue()
        action = lambda: None  # noqa: E731 - deliberate minimal thunk
        start = time.perf_counter()
        for i in range(n_events):
            queue.push(float(i % 977), action)
        while queue:
            queue.pop()
        wall = time.perf_counter() - start
        return wall, {"ops": 2 * n_events, "ops_per_sec": 0.0}

    result = _best_of(repeats, run)
    result["ops_per_sec"] = result["ops"] / result["wall_s"]
    return result


def kernel_trace(records: int = 200_000, repeats: int = 5) -> Dict[str, Any]:
    """TraceRecorder.record throughput with realistic payloads."""

    def run() -> Tuple[float, Dict[str, Any]]:
        recorder = TraceRecorder(enabled=True)
        start = time.perf_counter()
        for i in range(records):
            recorder.record(
                float(i), "net", "deliver", pid=3, src=1, kind="phase1a", msg_id=i
            )
        wall = time.perf_counter() - start
        return wall, {"records": records, "records_per_sec": 0.0}

    result = _best_of(repeats, run)
    result["records_per_sec"] = result["records"] / result["wall_s"]
    return result


def _synthetic_record(index: int) -> Any:
    """One realistic RunRecord payload for the store kernels."""
    from repro.consensus.values import DecisionOutcome, RunOutcome
    from repro.results.record import RunRecord

    n = 9
    outcome = RunOutcome(
        protocol="modified-paxos",
        n=n,
        ts=10.0,
        delta=1.0,
        seed=index,
        decisions=[
            DecisionOutcome(pid=pid, value=pid % 3, time=12.0 + 0.1 * pid,
                            after_stability=2.0 + 0.1 * pid)
            for pid in range(n)
        ],
        proposals={pid: pid % 3 for pid in range(n)},
        messages_sent=420,
        messages_delivered=400,
        duration=14.0,
        extra={"max_lag_after_ts": 2.8, "safety_valid": True, "events": 5000},
    )
    return RunRecord.from_outcome(
        outcome,
        workload="partitioned-chaos",
        key=f"modified-paxos/partitioned-chaos/bench/n{n}-ts10-d1-s{index}",
        tags={"n": n, "seed": index, "protocol": "modified-paxos"},
    )


def kernel_result_store(
    backend: str = "jsonl", records: int = 1_000, repeats: int = 3
) -> Dict[str, Any]:
    """ResultStore write + read-back + query throughput on disk.

    One "record" op = one ``put`` plus its share of a full ``query`` pass
    and an index ``flush``, measured against a fresh store file per pass —
    the persistence path a store-backed campaign actually pays.
    """
    from repro.results.store import JsonlStore, SqliteStore

    payloads = [_synthetic_record(index) for index in range(records)]

    def run() -> Tuple[float, Dict[str, Any]]:
        directory = tempfile.mkdtemp(prefix="repro-bench-store-")
        try:
            if backend == "jsonl":
                store = JsonlStore(os.path.join(directory, "bench.jsonl"))
            else:
                store = SqliteStore(os.path.join(directory, "bench.sqlite"))
            start = time.perf_counter()
            for record in payloads:
                store.put(record)
            store.flush()
            matched = len(store.query_records(protocol="modified-paxos"))
            store.close()
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        assert matched == records
        return wall, {"records": records, "records_per_sec": 0.0, "backend": backend}

    result = _best_of(repeats, run)
    result["records_per_sec"] = result["records"] / result["wall_s"]
    return result


def _smr_bench_tasks(runs: int, n: int, commands: int) -> List[Any]:
    from repro.harness.executors import SmrTask
    from repro.smr.workload import ScheduleSpec

    params = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
    return [
        SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": n, "params": params, "seed": seed},
            schedule=ScheduleSpec(num_commands=commands, start=10.0, interval=0.7,
                                  target_pid=n - 1),
        )
        for seed in range(1, runs + 1)
    ]


def kernel_smr(
    parallel: bool, runs: int = 4, n: int = 5, commands: int = 20, repeats: int = 3
) -> Dict[str, Any]:
    """End-to-end SMR pipeline rate: declarative tasks through an executor.

    Measures the full unified path — registry scenario build, multi-decree
    simulation, outcome snapshot — in replicated commands/sec.  The parallel
    variant runs the same batch through a two-worker process pool (spin-up
    included, then amortized across repeats by pool reuse).
    """
    from repro.harness.executors import ParallelExecutor, SerialExecutor

    tasks = _smr_bench_tasks(runs, n, commands)
    executor = ParallelExecutor(jobs=2) if parallel else SerialExecutor()

    def run() -> Tuple[float, Dict[str, Any]]:
        start = time.perf_counter()
        outcomes = executor.map(tasks)
        wall = time.perf_counter() - start
        learned = sum(len(outcome.commands) for outcome in outcomes)
        return wall, {
            "runs": runs,
            "commands": learned,
            "commands_per_sec": 0.0,
            "executor": executor.describe(),
        }

    try:
        result = _best_of(repeats, run)
    finally:
        close = getattr(executor, "close", None)
        if close is not None:
            close()
    result["commands_per_sec"] = result["commands"] / result["wall_s"]
    return result


def macro_e1(ns: Tuple[int, ...] = (3, 5, 7, 9), repeats: int = 3) -> Dict[str, Any]:
    """One E1-style macro run: the Modified Paxos scaling experiment, smoke-sized."""
    from repro.harness.experiments import (
        default_experiment_params,
        experiment_e1_modified_paxos_scaling,
    )

    params = default_experiment_params()

    def run() -> Tuple[float, Dict[str, Any]]:
        start = time.perf_counter()
        experiment_e1_modified_paxos_scaling(ns=ns, seeds=(1,), params=params)
        wall = time.perf_counter() - start
        return wall, {"experiment": f"E1 scaling (ns={','.join(map(str, ns))} seed=1)"}

    return _best_of(repeats, run)


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize to KiB.
    return usage // 1024 if platform.system() == "Darwin" else usage


def run_bench(quick: bool = False, label: str = "") -> Dict[str, Any]:
    """Run every kernel plus the macro experiment and return the artifact dict.

    ``quick`` shrinks sizes/repeats for CI and tests; the rates stay
    comparable, only noisier.
    """
    if quick:
        loop_events, queue_events, trace_records = 50_000, 50_000, 50_000
        net_time, repeats, macro_ns, macro_repeats = 15.0, 3, (3, 5), 1
        store_records = 300
        smr_runs, smr_commands = 2, 8
    else:
        loop_events, queue_events, trace_records = 200_000, 200_000, 200_000
        net_time, repeats, macro_ns, macro_repeats = 60.0, 5, (3, 5, 7, 9), 3
        store_records = 1_000
        smr_runs, smr_commands = 4, 20

    kernels = {
        "event_loop_trace_off": kernel_event_loop(False, events=loop_events, repeats=repeats),
        "network_trace_off": kernel_network(
            False, record_envelopes=False, max_time=net_time, repeats=repeats
        ),
        "network_trace_on_logged": kernel_network(
            True, record_envelopes=True, max_time=net_time, repeats=repeats
        ),
        "event_queue": kernel_event_queue(n_events=queue_events, repeats=repeats),
        "trace_record": kernel_trace(records=trace_records, repeats=repeats),
        "result_store_jsonl": kernel_result_store(
            "jsonl", records=store_records, repeats=macro_repeats
        ),
        "result_store_sqlite": kernel_result_store(
            "sqlite", records=store_records, repeats=macro_repeats
        ),
        "smr_serial": kernel_smr(
            False, runs=smr_runs, commands=smr_commands, repeats=macro_repeats
        ),
        "smr_parallel": kernel_smr(
            True, runs=smr_runs, commands=smr_commands, repeats=macro_repeats
        ),
    }
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernels": kernels,
        "macro": macro_e1(ns=macro_ns, repeats=macro_repeats),
        "peak_rss_kb": _peak_rss_kb(),
    }


def attach_baseline(result: Dict[str, Any], baseline: Dict[str, Any], note: str = "") -> None:
    """Embed an earlier measurement and per-kernel speedups into ``result``.

    ``baseline`` may be a full bench artifact (with a ``kernels`` key) or a
    bare ``{kernel: stats}`` mapping.
    """
    kernels = baseline.get("kernels", baseline)
    result["baseline"] = {"note": note, "kernels": kernels}
    speedup: Dict[str, float] = {}
    for name, metric in PRIMARY_METRICS.items():
        current = result["kernels"].get(name, {}).get(metric)
        previous = kernels.get(name, {}).get(metric)
        if current and previous:
            speedup[name] = round(current / previous, 3)
    result["speedup"] = speedup


def write_bench(result: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=False)
        handle.write("\n")


def find_latest_baseline(root: str = ".") -> Optional[str]:
    """Path of the most recent committed ``BENCH_*.json``, if any.

    "Most recent" uses natural ordering of the file name (digit runs compare
    numerically), so ``BENCH_PR10.json`` beats ``BENCH_PR9.json``.
    """
    def natural_key(path: str) -> Tuple:
        name = os.path.basename(path)
        return tuple(
            int(part) if part.isdigit() else part
            for part in re.split(r"(\d+)", name)
        )

    candidates = sorted(glob(os.path.join(root, "BENCH_*.json")), key=natural_key)
    return candidates[-1] if candidates else None


def compare_to_baseline(
    current: Dict[str, Any], committed: Dict[str, Any], tolerance: float = 0.2
) -> List[str]:
    """Regression report: kernels whose rate dropped more than ``tolerance``.

    Returns human-readable regression lines (empty = pass).  Kernels missing
    on either side are skipped — adding a new kernel must not fail the gate;
    :func:`ungated_kernels` names them so they do not go unnoticed.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    current_kernels = current.get("kernels", current)
    committed_kernels = committed.get("kernels", committed)
    regressions: List[str] = []
    for name, metric in PRIMARY_METRICS.items():
        new = current_kernels.get(name, {}).get(metric)
        old = committed_kernels.get(name, {}).get(metric)
        if not new or not old:
            continue
        floor = old * (1.0 - tolerance)
        if new < floor:
            regressions.append(
                f"{name}: {metric} {new:,.0f} < {floor:,.0f} "
                f"(committed {old:,.0f}, tolerance {tolerance:.0%})"
            )
    return regressions


def ungated_kernels(current: Dict[str, Any], committed: Dict[str, Any]) -> List[str]:
    """Kernels measured in only one of the two artifacts, which the gate skips."""
    current_kernels = current.get("kernels", current)
    committed_kernels = committed.get("kernels", committed)
    return sorted(set(current_kernels) ^ set(committed_kernels))
