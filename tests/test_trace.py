"""Unit tests for the structured trace (`repro.analysis.trace`)."""

import pytest

from repro.analysis.trace import TraceRecorder
from repro.sim.simulator import SimulationConfig


class TestRecording:
    def test_record_and_len(self):
        trace = TraceRecorder()
        trace.record(1.0, "net", "send", pid=0, kind="phase1a")
        trace.record(2.0, "sim", "decide", pid=1, value="v")
        assert len(trace) == 2
        assert [event.event for event in trace] == ["send", "decide"]


class TestQueries:
    def _populate(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "session_enter", pid=0, session=0)
        trace.record(2.0, "protocol", "session_enter", pid=1, session=1)
        trace.record(3.0, "protocol", "start_phase1", pid=0, session=1)
        trace.record(4.0, "node", "crash", pid=1)
        return trace

    def test_filter_by_event_and_pid(self):
        trace = self._populate()
        assert len(trace.filter(event="session_enter")) == 2
        assert len(trace.filter(event="session_enter", pid=0)) == 1
        assert len(trace.filter(category="node")) == 1

    def test_filter_with_predicate(self):
        trace = self._populate()
        high_sessions = trace.filter(
            event="session_enter", predicate=lambda e: e.fields.get("session", 0) >= 1
        )
        assert len(high_sessions) == 1


class TestAlwaysOn:
    """Every run keeps its whole trace: there is no setting that drops records."""

    @pytest.mark.parametrize(
        "setting", [{"enabled": False}, {"capacity": 2}], ids=["enabled", "capacity"]
    )
    def test_recorder_takes_no_settings(self, setting):
        with pytest.raises(TypeError):
            TraceRecorder(**setting)

    @pytest.mark.parametrize(
        "setting", [{"trace_enabled": False}, {"trace_capacity": 2}],
        ids=["trace_enabled", "trace_capacity"],
    )
    def test_simulation_config_has_no_trace_settings(self, setting):
        with pytest.raises(TypeError):
            SimulationConfig(n=3, **setting)
