"""Span tracing of the layers a workload calls into, for the traced run.

:meth:`Tracer.install` replaces public entry points of each layer with
wrappers, at class (or module) level, before any simulator is built: the
``Network`` binds its delivery action and the ``Simulator`` its node lookup
when they are constructed, so patching an instance would miss calls.  Each
wrapper records a span — name, start, end, parent span, run id — into
in-memory columns and keeps per-name call counts, total time and self time
(the span's duration minus the time its child spans cover).
:meth:`Tracer.uninstall` restores the originals; :meth:`Tracer.write` dumps
the spans when the benchmark ends.

Span names are ``<layer>.<entry point>``; :func:`layer_metrics` folds them
into the per-layer metrics named in ``BENCHMARK.json`` (``harness.e1_s`` ...
``harness.e9_s`` and ``tracing.overhead_ratio`` come from the untraced
passes, in ``run.py``).
"""

from __future__ import annotations

import array
import contextlib
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Tuple


def _subclasses(root: type) -> List[type]:
    found, pending = [], [root]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        # Span columns; a span's index is its position in every column.
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_run = array.array("I")
        # Open spans, innermost last: [span index, name id, start, child seconds].
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def _open(self, nid: int) -> list:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        frame = [index, nid, 0.0, 0.0]
        stack.append(frame)
        frame[2] = start = time.perf_counter()
        self.span_start.append(start)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        index, nid, start, child = frame
        self.span_end[index] = end
        elapsed = end - start
        self.calls[nid] += 1
        self.total[nid] += elapsed
        self.self_time[nid] += elapsed - child
        if stack:
            stack[-1][3] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        stack = self._stack
        begin, finish = self._open, self._close

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                # A subclass override calling super(): one span covers both.
                return fn(*args, **kwargs)
            frame = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(frame)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        frame = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(frame)

    def count_when(self, fn: Callable, key: str, predicate: Callable[[Any], bool]) -> Callable:
        """``fn`` that bumps ``counters[key]`` whenever its result satisfies ``predicate``."""
        counters = self.counters

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if predicate(result):
                counters[key] += 1
            return result

        return counted

    # -- patching -------------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str,
              adapt: Callable[[Callable], Callable] = lambda fn: fn) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a traced wrapper."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, adapt(original.__func__)))
        else:
            replacement = self.wrap(name, adapt(original))
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        import repro.analysis.invariants as invariants
        import repro.analysis.metrics as analysis_metrics
        import repro.harness.executors as executors
        import repro.harness.runner as harness_runner
        import repro.results.record as record
        import repro.results.store as store
        import repro.smr.runner as smr_runner
        from repro.analysis.trace import TraceRecorder
        from repro.consensus.base import ConsensusProcess
        from repro.consensus.registry import default_registry
        from repro.harness.tables import ExperimentTable
        from repro.net.monitor import NetworkMonitor
        from repro.net.network import Network
        from repro.net.synchrony import SynchronyModel
        from repro.results.smr_record import SmrRecord
        from repro.sim.simulator import Simulator
        from repro.smr.multi_paxos import MultiPaxosSmrProcess
        from repro.storage.stable import StableStore
        from repro.workloads.registry import ScenarioRegistry, default_workload_registry

        # Import every protocol and workload module, so the class walks
        # below see every subclass.
        default_registry()
        default_workload_registry()

        # sim: the event loop, and the stop predicate it polls after each event.
        counting = self.count_when

        def with_timed_stop(run: Callable) -> Callable:
            def run_traced(sim, until=None, stop_when=None, max_events=None):
                if stop_when is not None:
                    stop_when = self.wrap("sim.stop_check",
                                          counting(stop_when, "sim.stop_hits", bool))
                return run(sim, until, stop_when, max_events)
            return run_traced

        self.patch(Simulator, "run", "sim.run", adapt=with_timed_stop)

        # net: the send path, message fates, the monitor hooks and delivery.
        self.patch(Network, "send", "net.send")
        self.patch(Network, "_deliver", "net.deliver")
        for cls in _subclasses(SynchronyModel):
            if "fate" in vars(cls):
                self.patch(cls, "fate", "net.fate")
        for hook, name in (("on_send", "net.monitor_send"), ("on_deliver", "net.monitor_deliver"),
                           ("on_drop", "net.monitor_drop"), ("on_duplicate", "net.monitor_other"),
                           ("on_lost_to_crashed", "net.monitor_other")):
            self.patch(NetworkMonitor, hook, name)

        # consensus and smr: protocol handlers, per concrete class.
        smr_classes = set(_subclasses(MultiPaxosSmrProcess))
        for cls in _subclasses(ConsensusProcess):
            layer = "smr" if cls in smr_classes else "consensus"
            for handler in ("on_message", "on_timer"):
                if handler in vars(cls):
                    self.patch(cls, handler, f"{layer}.{handler}")

        # storage: every durable write and read of a process's stable store.
        for method in ("put", "update", "delete"):
            self.patch(StableStore, method, "storage.update")
        self.patch(StableStore, "get", "storage.read")

        # analysis: trace recording and scans, invariants, post-run metrics.
        self.patch(TraceRecorder, "record", "analysis.trace_record")
        self.patch(TraceRecorder, "filter", "analysis.trace_filter")
        self.patch(NetworkMonitor, "send_rate", "analysis.send_rate")

        def vacuous(report) -> bool:
            return report.checked == 0

        def count_vacuous(fn: Callable) -> Callable:
            return counting(fn, "analysis.invariants_checked_zero", vacuous)

        for check in ("check_session_entry_rule", "check_rotating_round_entry",
                      "check_unique_phase2a_value", "check_single_session_leadership"):
            self.patch(invariants, check, "analysis.invariants", adapt=count_vacuous)
        self.patch(smr_runner, "check_session_entry_rule", "analysis.invariants",
                   adapt=count_vacuous)
        for owner, function in ((harness_runner, "compute_run_metrics"),
                                (harness_runner, "check_safety"),
                                (analysis_metrics, "restart_recovery_lags"),
                                (smr_runner, "command_latencies"),
                                (smr_runner, "learned_prefix_lengths"),
                                (smr_runner, "replica_digests"),
                                (smr_runner, "check_log_consistency")):
            self.patch(owner, function, "analysis.metrics")

        # results: record encoding and store writes; store reads and decoding.
        self.patch(record, "record_for_task", "results.encode")
        for cls in (record.RunRecord, SmrRecord):
            self.patch(cls, "to_json", "results.encode")
            self.patch(cls, "to_outcome", "results.decode")
        self.patch(store, "decode_record_json", "results.decode")
        self.patch(store.JsonlStore, "__init__", "results.open")
        self.patch(store.JsonlStore, "put", "results.put")
        self.patch(store.JsonlStore, "flush", "results.flush")

        def count_hits(fn: Callable) -> Callable:
            hits = counting(fn, "results.cache_hits", lambda found: found is not None)
            return counting(hits, "results.cache_misses", lambda found: found is None)

        self.patch(store.JsonlStore, "get", "results.get", adapt=count_hits)

        # harness: outcome snapshots and table aggregation/rendering.
        self.patch(executors, "snapshot_outcome", "harness.snapshot")
        self.patch(executors, "snapshot_smr_outcome", "harness.snapshot")
        self.patch(ExperimentTable, "from_result_set", "harness.table_render")
        self.patch(ExperimentTable, "render", "harness.table_render")

        # workloads: scenario construction through the registry.
        self.patch(ScenarioRegistry, "create", "workloads.scenario_build")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------
    def stat(self, name: str) -> Tuple[int, float, float]:
        """(calls, total seconds, self seconds) of the spans called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def write(self, prefix: str) -> None:
        """Write ``<prefix>.json`` (layout and span names) and ``<prefix>.bin`` (columns)."""
        columns = (("name", self.span_name), ("start", self.span_start),
                   ("end", self.span_end), ("parent", self.span_parent),
                   ("run", self.span_run))
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "byteorder": sys.byteorder,
            "columns": [[field, column.typecode, column.itemsize] for field, column in columns],
        }
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(prefix + ".bin", "wb") as handle:
            for _, column in columns:
                column.tofile(handle)



def layer_metrics(tracer: Tracer, passes: List[Any]) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, per pass.

    Every ``_s`` metric is self time: the time inside the layer's spans not
    covered by a child span, so the layers' times add up to the passes'
    wall time.  ``harness.self_s`` is the self time of every ``harness.*``
    span, the benchmark's own ``harness.pass`` root included: the wall time
    no other layer's span covers.  Simulated counts come from the outcomes
    of the runs the passes executed.
    """
    from repro.smr.outcome import SmrOutcome

    count = len(passes)

    def calls(*names: str) -> float:
        return sum(tracer.stat(name)[0] for name in names) / count

    def self_s(*names: str) -> float:
        return sum(tracer.stat(name)[2] for name in names) / count

    counters = tracer.counters
    stop_checks = tracer.stat("sim.stop_check")[0]
    outcomes = [outcome for p in passes for outcome in p.outcomes]
    smr = [outcome for outcome in outcomes if isinstance(outcome, SmrOutcome)]
    runs = [outcome for outcome in outcomes if not isinstance(outcome, SmrOutcome)]
    decisions = sum(len(outcome.decisions) for outcome in runs)
    commands = sum(outcome.total_commands for outcome in smr)
    return {
        "sim.events": sum(outcome.extra["events"] for outcome in outcomes) / count,
        "sim.self_s": self_s("sim.run"),
        "sim.stop_checks": calls("sim.stop_check"),
        "sim.stop_check_s": self_s("sim.stop_check"),
        "sim.stop_check_hit_ratio": counters["sim.stop_hits"] / stop_checks if stop_checks else 0.0,
        "net.sent": calls("net.monitor_send"),
        "net.delivered": calls("net.monitor_deliver"),
        "net.dropped": calls("net.monitor_drop"),
        "net.send_s": self_s("net.send"),
        "net.fate_s": self_s("net.fate"),
        "net.monitor_s": self_s("net.monitor_send", "net.monitor_deliver", "net.monitor_drop",
                                "net.monitor_other"),
        "net.deliver_s": self_s("net.deliver"),
        "net.msgs_per_decision": (sum(o.messages_sent for o in runs) / decisions
                                  if decisions else 0.0),
        "net.msgs_per_cmd": sum(o.messages_sent for o in smr) / commands if commands else 0.0,
        "consensus.on_message_calls": calls("consensus.on_message"),
        "consensus.on_message_self_s": self_s("consensus.on_message"),
        "consensus.on_timer_calls": calls("consensus.on_timer"),
        "consensus.on_timer_self_s": self_s("consensus.on_timer"),
        "smr.on_message_self_s": self_s("smr.on_message"),
        "smr.on_timer_self_s": self_s("smr.on_timer"),
        "smr.prefix_len_total": sum(sum(o.prefix_lengths.values()) for o in smr) / count,
        "storage.writes": calls("storage.update"),
        "storage.reads": calls("storage.read"),
        "storage.update_s": self_s("storage.update"),
        "storage.read_s": self_s("storage.read"),
        "analysis.trace_records": calls("analysis.trace_record"),
        "analysis.trace_record_s": self_s("analysis.trace_record"),
        "analysis.trace_filter_s": self_s("analysis.trace_filter"),
        "analysis.invariants_s": self_s("analysis.invariants"),
        "analysis.metrics_s": self_s("analysis.metrics"),
        "analysis.send_rate_s": self_s("analysis.send_rate"),
        "analysis.invariants_checked_zero": counters["analysis.invariants_checked_zero"] / count,
        "results.records_written": calls("results.put"),
        "results.encode_s": self_s("results.encode"),
        "results.put_s": self_s("results.put"),
        "results.flush_s": self_s("results.flush"),
        "results.open_s": self_s("results.open"),
        "results.get_s": self_s("results.get"),
        "results.decode_s": self_s("results.decode"),
        "results.cache_hits": counters["results.cache_hits"] / count,
        "results.cache_misses": counters["results.cache_misses"] / count,
        "harness.tasks": calls("harness.task") + counters["results.cache_hits"] / count,
        "harness.snapshot_s": self_s("harness.snapshot"),
        "harness.table_render_s": self_s("harness.table_render"),
        "harness.self_s": self_s(*(name for name in tracer.names if name.startswith("harness."))),
        "workloads.scenario_builds": calls("workloads.scenario_build"),
        "workloads.scenario_build_s": self_s("workloads.scenario_build"),
    }
