"""Unit tests for network accounting (`repro.net.monitor`)."""

import pytest

from repro.core.messages import Phase1a, Phase2a
from repro.net.message import Envelope, Era
from repro.net.monitor import NetworkMonitor


def envelope(kind_msg, send_time, era=Era.POST, src=0, dst=1):
    return Envelope(message=kind_msg, src=src, dst=dst, send_time=send_time, era=era)


class TestCounters:
    def test_send_deliver_drop_counts(self):
        monitor = NetworkMonitor()
        first = envelope(Phase1a(mbal=1), 0.5)
        second = envelope(Phase2a(mbal=1, value="v"), 1.5, era=Era.PRE)
        monitor.on_send(first)
        monitor.on_send(second)
        monitor.on_deliver(first)
        monitor.on_drop(second)
        stats = monitor.stats
        assert stats.sent == 2
        assert stats.delivered == 1
        assert stats.dropped == 1
        assert stats.sent_pre_ts == 1
        assert stats.sent_post_ts == 1
        assert stats.by_kind == {"phase1a": 1, "phase2a": 1}
        assert stats.delivered_by_kind == {"phase1a": 1}

    def test_duplicate_and_crashed_counters(self):
        monitor = NetworkMonitor()
        env = envelope(Phase1a(mbal=1), 0.0)
        monitor.on_duplicate(env)
        monitor.on_lost_to_crashed(env)
        assert monitor.stats.duplicated == 1
        assert monitor.stats.to_crashed == 1


class TestRates:
    def test_sends_in_window_half_open(self):
        monitor = NetworkMonitor()
        for t in (0.0, 1.0, 2.0, 3.0):
            monitor.on_send(envelope(Phase1a(mbal=1), t))
        assert monitor.sends_in_window(1.0, 3.0) == 2
        assert monitor.sends_in_window(3.0, 3.0) == 0
        assert monitor.sends_in_window(5.0, 4.0) == 0

    def test_send_rate(self):
        monitor = NetworkMonitor()
        for t in (0.0, 0.5, 1.0, 1.5):
            monitor.on_send(envelope(Phase1a(mbal=1), t))
        assert monitor.send_rate(0.0, 2.0) == pytest.approx(2.0)
        assert monitor.send_rate(2.0, 2.0) == 0.0
