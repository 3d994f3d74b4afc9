"""Structured execution traces.

A :class:`TraceRecorder` keeps the low-volume *semantic* events of a
simulation as :class:`TraceEvent` records: node starts, crashes and
restarts, decisions, scenario-level injections, and the protocol events
processes ``emit`` (session and round entries, phase 2a proposals, SMR
command milestones, ...).  :data:`TRACE_EVENTS` declares every event the
code records, with its fields.  Post-hoc analysis — invariant checks,
metrics, restart lags, SMR command latencies, timelines — reads only these.
Every simulation keeps its trace: it cannot be switched off or capped, so a
run's records and checks never depend on a tracing setting.

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


class TraceRecorder:
    """Append-only, unbounded store of :class:`TraceEvent` records."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def record(
        self,
        time: float,
        category: str,
        event: str,
        pid: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Append one event; ``fields`` is already a fresh dict, so it is kept as is."""
        self._events.append(
            TraceEvent(time=time, category=category, event=event, pid=pid, fields=fields)
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
