"""Structured execution traces.

A :class:`TraceRecorder` keeps the low-volume *semantic* events of a
simulation as :class:`TraceEvent` records: node starts, crashes and
restarts, decisions, scenario-level injections, and the protocol events
processes ``emit`` (session and round entries, phase 2a proposals, SMR
command milestones, ...).  :data:`TRACE_EVENTS` declares every event the
code records, with its fields.  Post-hoc analysis — invariant checks,
metrics, restart lags, SMR command latencies, timelines — reads only these.

Individual messages and timer firings are not traced.  The per-message
record is the network's envelope log
(:attr:`~repro.net.network.Network.envelopes`: source, destination, kind,
message id, send and delivery time, dropped flag), and the network monitor
keeps the aggregate counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["TRACE_EVENTS", "EventKind", "TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class EventKind:
    """Declared shape of one kind of trace event.

    Attributes:
        fields: Fields every record of this kind carries.
        optional: Fields only some recorders add (e.g. the protocol-specific
            extras of ``phase2a``); a record carries no field outside
            ``fields`` and ``optional``.
        description: What the event means.
        milestone: Whether per-process timelines show the event.
    """

    fields: Tuple[str, ...]
    description: str
    optional: Tuple[str, ...] = ()
    milestone: bool = False


# Every (category, event) the code records.  Declarative only: recording
# never validates against it, so the hot path pays nothing.
TRACE_EVENTS: Dict[Tuple[str, str], EventKind] = {
    ("node", "start"): EventKind(("incarnation",), "first incarnation booted", milestone=True),
    ("node", "crash"): EventKind((), "process crashed, volatile state lost", milestone=True),
    ("node", "restart"): EventKind(
        ("incarnation",), "new incarnation booted on the old stable storage", milestone=True
    ),
    ("sim", "decide"): EventKind(("value",), "process decided", milestone=True),
    ("net", "obsolete_release"): EventKind(
        ("ballot", "index"), "scenario injected an obsolete high-ballot phase 1a"
    ),
    ("protocol", "session_enter"): EventKind(
        ("session", "ballot", "via"), "Modified Paxos process entered a session", milestone=True
    ),
    ("protocol", "start_phase1"): EventKind(
        ("ballot",),
        "process started phase 1 for a new ballot",
        optional=("session", "previous_session", "attempt"),
        milestone=True,
    ),
    ("protocol", "phase2a"): EventKind(
        ("ballot",),
        "leader sent phase 2a for a ballot (and slot, in SMR)",
        optional=("session", "value", "slot"),
        milestone=True,
    ),
    ("protocol", "rejected"): EventKind(
        ("above", "previous"), "traditional Paxos proposer saw a higher ballot"
    ),
    ("protocol", "round_enter"): EventKind(
        ("round", "via"), "round-based process entered a round", milestone=True
    ),
    ("protocol", "propose"): EventKind(("round", "value"), "rotating coordinator proposed"),
    ("protocol", "bvote"): EventKind(("round", "vote"), "B-Consensus process cast its vote"),
    ("protocol", "leader_established"): EventKind(
        ("ballot", "next_slot"), "SMR leader finished phase 1 for its ballot", milestone=True
    ),
    ("protocol", "command_submit"): EventKind(
        ("command_id",), "client command submitted at a replica"
    ),
    ("protocol", "command_assign"): EventKind(
        ("command_id", "slot", "ballot"), "SMR leader assigned a command to a slot"
    ),
    ("protocol", "slot_decide"): EventKind(
        ("slot", "command_id"), "replica learned the command of a slot"
    ),
}


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes:
        time: Real (simulated) time of the event.
        category: Coarse source of the event: ``"sim"``, ``"net"``,
            ``"node"``, or ``"protocol"``.
        event: Short event name, e.g. ``"crash"``, ``"session_enter"``,
            ``"decide"``.
        pid: Process the event concerns, or ``None`` for global events.
        fields: Structured payload; :data:`TRACE_EVENTS` declares its keys.
    """

    time: float
    category: str
    event: str
    pid: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        where = f"p{self.pid}" if self.pid is not None else "--"
        payload = " ".join(f"{key}={value!r}" for key, value in sorted(self.fields.items()))
        return f"[{self.time:10.4f}] {self.category:8s} {where:>4s} {self.event:18s} {payload}"


class TraceRecorder:
    """Append-only store of :class:`TraceEvent` records.

    Args:
        enabled: When False, ``record`` becomes a no-op.  The simulator and
            node call sites check :attr:`enabled` *before* calling
            :meth:`record`, so a disabled run never builds the
            keyword-argument dict.  The trace invariants
            cannot see anything then and report a violation.
        capacity: Optional hard cap on stored events; older events are never
            evicted — recording simply stops and ``truncated`` becomes True.
            The trace invariants report a truncated trace as a violation.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.truncated = False
        self._events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def record(
        self,
        time: float,
        category: str,
        event: str,
        pid: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Append one event (no-op when disabled or over capacity)."""
        if not self.enabled:
            return
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.truncated = True
            return
        self._events.append(
            TraceEvent(time=time, category=category, event=event, pid=pid, fields=dict(fields))
        )

    # -- queries -------------------------------------------------------------
    def filter(
        self,
        event: Optional[str] = None,
        category: Optional[str] = None,
        pid: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Events matching all the given criteria, in time order."""
        selected = []
        for record in self._events:
            if event is not None and record.event != event:
                continue
            if category is not None and record.category != category:
                continue
            if pid is not None and record.pid != pid:
                continue
            if predicate is not None and not predicate(record):
                continue
            selected.append(record)
        return selected

    def first(self, event: str, **criteria: Any) -> Optional[TraceEvent]:
        """Earliest event with the given name (and optional pid/category)."""
        matches = self.filter(event=event, **criteria)
        return matches[0] if matches else None

    def last(self, event: str, **criteria: Any) -> Optional[TraceEvent]:
        """Latest event with the given name (and optional pid/category)."""
        matches = self.filter(event=event, **criteria)
        return matches[-1] if matches else None

    def count(self, event: str, **criteria: Any) -> int:
        return len(self.filter(event=event, **criteria))

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of (a prefix of) the trace."""
        events = self._events if limit is None else self._events[:limit]
        lines = [record.describe() for record in events]
        if limit is not None and len(self._events) > limit:
            lines.append(f"... ({len(self._events) - limit} more events)")
        return "\n".join(lines)
