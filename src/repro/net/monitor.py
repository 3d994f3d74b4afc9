"""Message accounting.

The monitor sees every envelope the network handles and aggregates the
counts the experiments need: totals by fate and era, per-kind breakdowns,
and the send times the ε-tradeoff experiment (E6) uses to report messages
per second during the stable period.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

from repro.net.message import Envelope, Era

__all__ = ["NetworkMonitor", "MessageStats"]


@dataclass
class MessageStats:
    """Aggregate message counters for one simulation run."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    to_crashed: int = 0
    sent_pre_ts: int = 0
    sent_post_ts: int = 0
    by_kind: Counter = field(default_factory=Counter)
    delivered_by_kind: Counter = field(default_factory=Counter)


class NetworkMonitor:
    """Observes every envelope and answers rate/count queries."""

    def __init__(self) -> None:
        self.stats = MessageStats()
        self._send_times: List[float] = []

    # -- recording hooks (called by Network) --------------------------------
    def on_send(self, envelope: Envelope) -> None:
        self.stats.sent += 1
        self.stats.by_kind[envelope.kind] += 1
        if envelope.era is Era.PRE:
            self.stats.sent_pre_ts += 1
        else:
            self.stats.sent_post_ts += 1
        self._send_times.append(envelope.send_time)

    def on_drop(self, envelope: Envelope) -> None:
        self.stats.dropped += 1

    def on_deliver(self, envelope: Envelope) -> None:
        self.stats.delivered += 1
        self.stats.delivered_by_kind[envelope.kind] += 1

    def on_duplicate(self, envelope: Envelope) -> None:
        self.stats.duplicated += 1

    def on_lost_to_crashed(self, envelope: Envelope) -> None:
        self.stats.to_crashed += 1

    # -- queries ------------------------------------------------------------
    def sends_in_window(self, start: float, end: float) -> int:
        """Number of messages sent in the half-open real-time window [start, end)."""
        if end <= start:
            return 0
        return sum(1 for t in self._send_times if start <= t < end)

    def send_rate(self, start: float, end: float) -> float:
        """Average messages per second over [start, end)."""
        if end <= start:
            return 0.0
        return self.sends_in_window(start, end) / (end - start)
