"""The network: turns sends into scheduled deliveries.

The :class:`Network` is intentionally thin.  It asks the synchrony model for
each message's fate, schedules the delivery event on its host (the
simulator), and reports everything to the :class:`repro.net.monitor.NetworkMonitor`.
Scenario builders can additionally *inject* in-flight messages — the
mechanism used to install reachable pre-stabilization states (obsolete
high-ballot messages and the like) without replaying the whole pre-``TS``
history.

The envelope log behind :attr:`Network.envelopes` is the per-message
record of a run: every send, injection and duplicate copy with its source,
destination, kind, message id, send and delivery time, and dropped flag.
The structured trace does not repeat it (see :mod:`repro.analysis.trace`).

The send/deliver path is the hottest code outside the event queue, so it
avoids per-message allocations where it can: message ids come from a plain
per-network integer counter (deterministic per run, no global state),
deliveries are scheduled as a bound method plus an argument tuple instead of
a fresh closure, and the envelope log that analysis code reads through
:attr:`Network.envelopes` can be switched off entirely for benchmark and
campaign runs with ``record_envelopes=False`` (the monitor's aggregate
counters are unaffected).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Tuple

from repro.errors import NetworkError
from repro.net.message import Envelope, Era, Message
from repro.net.monitor import NetworkMonitor
from repro.net.synchrony import SynchronyModel
from repro.sim.events import EventHandle
from repro.sim.rng import SeededRng

__all__ = ["Network", "TransportHost"]


class TransportHost(Protocol):
    """What the network needs from its host (implemented by the simulator)."""

    def now(self) -> float:
        """Current real time."""

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        *,
        label: str = "",
        args: Tuple = (),
        cancellable: bool = True,
    ) -> Optional[EventHandle]:
        """Schedule ``action(*args)`` at an absolute real time."""

    def deliver_envelope(self, envelope: Envelope) -> bool:
        """Hand the envelope to its destination; False if the destination is crashed."""


class Network:
    """Message transport with partial-synchrony semantics.

    Args:
        model: The synchrony model deciding delivery fates.
        rng: Randomness stream for delays and duplication coins.
        monitor: Message accounting sink (a fresh one is created if omitted).
        record_envelopes: Keep the full per-envelope log behind
            :attr:`envelopes`, the per-message record for debugging.  On by
            default for tests and analysis; switch off for benchmarks and
            campaign runs, where the log grows without bound and nothing
            reads it.
    """

    def __init__(
        self,
        model: SynchronyModel,
        rng: SeededRng,
        monitor: Optional[NetworkMonitor] = None,
        record_envelopes: bool = True,
    ) -> None:
        self.model = model
        self.rng = rng
        self.monitor = monitor if monitor is not None else NetworkMonitor()
        self.record_envelopes = record_envelopes
        self._host: Optional[TransportHost] = None
        self._log: List[Envelope] = []
        self._log_view: Tuple[Envelope, ...] = ()
        self._next_msg_id = 0
        # Bound once: scheduled as the delivery action for every envelope,
        # so the send path never builds a closure.
        self._deliver_action = self._deliver

    # -- wiring --------------------------------------------------------------
    def bind(self, host: TransportHost) -> None:
        """Attach the transport host; must be called before the first send."""
        self._host = host

    @property
    def host(self) -> TransportHost:
        if self._host is None:
            raise NetworkError("Network.bind(host) must be called before sending")
        return self._host

    @property
    def envelopes(self) -> Tuple[Envelope, ...]:
        """Every recorded envelope, in send order, as a read-only tuple.

        The tuple is cached and rebuilt only when the log has grown since the
        last access, so analysis loops that read it per iteration pay O(1)
        instead of a fresh O(n) copy each time.  Empty when the network was
        built with ``record_envelopes=False``.
        """
        view = self._log_view
        if len(view) != len(self._log):
            view = self._log_view = tuple(self._log)
        return view

    def _next_id(self) -> int:
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        return msg_id

    # -- the send path --------------------------------------------------------
    def send(self, message: Message, src: int, dst: int) -> Envelope:
        """Send ``message`` from ``src`` to ``dst`` and schedule its fate."""
        host = self._host
        if host is None:
            raise NetworkError("Network.bind(host) must be called before sending")
        now = host.now()
        model = self.model
        envelope = Envelope(
            message=message,
            src=src,
            dst=dst,
            send_time=now,
            era=model.era(now),
            msg_id=self._next_id(),
        )
        if self.record_envelopes:
            self._log.append(envelope)
        self.monitor.on_send(envelope)

        deliver_time = model.fate(envelope, now, self.rng)
        if deliver_time is None:
            envelope.dropped = True
            self.monitor.on_drop(envelope)
            return envelope

        self._schedule_delivery(envelope, deliver_time)

        duplicate_prob = model.duplicate_probability(envelope, now)
        if duplicate_prob > 0 and self.rng.coin(duplicate_prob):
            self._schedule_duplicate(envelope, now)
        return envelope

    def inject(
        self,
        message: Message,
        src: int,
        dst: int,
        deliver_time: float,
        send_time: float = 0.0,
    ) -> Envelope:
        """Install an in-flight message with a fixed delivery time.

        Used by scenario builders to represent messages sent before the
        simulated portion of the execution begins (the pre-``TS`` history the
        paper allows to be arbitrary).  The injected envelope is marked as
        belonging to the pre-stabilization era.
        """
        if deliver_time < send_time:
            raise NetworkError("injected message would be delivered before it was sent")
        if self._host is None:
            raise NetworkError("Network.bind(host) must be called before injecting")
        envelope = Envelope(
            message=message,
            src=src,
            dst=dst,
            send_time=send_time,
            era=Era.PRE,
            msg_id=self._next_id(),
        )
        if self.record_envelopes:
            self._log.append(envelope)
        self.monitor.on_send(envelope)
        self._schedule_delivery(envelope, deliver_time)
        return envelope

    # -- internals -------------------------------------------------------------
    def _schedule_delivery(self, envelope: Envelope, deliver_time: float) -> None:
        # Deliveries are never cancelled, so the handle allocation is skipped
        # and the action is the pre-bound method with the envelope as its
        # argument — no per-delivery closure or label formatting.
        envelope.deliver_time = deliver_time
        self._host.schedule_at(
            deliver_time,
            self._deliver_action,
            args=(envelope,),
            label="net:deliver",
            cancellable=False,
        )

    def _schedule_duplicate(self, envelope: Envelope, now: float) -> None:
        duplicate = Envelope(
            message=envelope.message,
            src=envelope.src,
            dst=envelope.dst,
            send_time=envelope.send_time,
            era=envelope.era,
            msg_id=self._next_id(),
            duplicated_from=envelope.msg_id,
        )
        if self.record_envelopes:
            self._log.append(duplicate)
        self.monitor.on_duplicate(duplicate)
        deliver_time = self.model.fate(duplicate, now, self.rng)
        if deliver_time is None:
            duplicate.dropped = True
            self.monitor.on_drop(duplicate)
            return
        self._schedule_delivery(duplicate, deliver_time)

    def _deliver(self, envelope: Envelope) -> None:
        accepted = self._host.deliver_envelope(envelope)
        if accepted:
            self.monitor.on_deliver(envelope)
        else:
            self.monitor.on_lost_to_crashed(envelope)
