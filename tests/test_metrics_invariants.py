"""Unit tests for run metrics and trace invariants (`repro.analysis`)."""

import pytest

from repro.analysis.invariants import (
    check_rotating_round_entry,
    check_session_entry_rule,
    check_single_session_leadership,
    check_unique_phase2a_value,
)
from repro.analysis.metrics import DecisionMetrics
from repro.analysis.trace import TraceRecorder
from repro.errors import InvariantViolation
from repro.harness.runner import run_scenario

from tests.helpers import make_params, make_scenario


class TestDecisionMetrics:
    def test_lag_clamped_at_zero_for_early_deciders(self):
        metrics = DecisionMetrics(ts=10.0, decision_times={0: 8.0, 1: 12.5})
        assert metrics.lag_after_ts(0) == 0.0
        assert metrics.lag_after_ts(1) == pytest.approx(2.5)
        assert metrics.lag_after_ts(7) is None

    def test_max_lag_over_selected_pids(self):
        metrics = DecisionMetrics(ts=10.0, decision_times={0: 11.0, 1: 14.0, 2: 9.0})
        assert metrics.max_lag_after_ts() == pytest.approx(4.0)
        assert metrics.max_lag_after_ts([0, 2]) == pytest.approx(1.0)

    def test_max_lag_none_if_requested_pid_undecided(self):
        metrics = DecisionMetrics(ts=10.0, decision_times={0: 11.0}, undecided=[1])
        assert metrics.max_lag_after_ts([0, 1]) is None

    def test_mean_lag(self):
        metrics = DecisionMetrics(ts=10.0, decision_times={0: 11.0, 1: 13.0})
        assert metrics.mean_lag_after_ts() == pytest.approx(2.0)
        assert DecisionMetrics(ts=0.0).mean_lag_after_ts() is None

    def test_all_decided_flag(self):
        assert DecisionMetrics(ts=0.0).all_decided
        assert not DecisionMetrics(ts=0.0, undecided=[3]).all_decided


def _session_trace(entries, starts):
    """Build a protocol trace from (time, pid, session) tuples."""
    trace = TraceRecorder()
    events = [(t, pid, s, "session_enter") for t, pid, s in entries]
    events += [(t, pid, s, "start_phase1") for t, pid, s in starts]
    for t, pid, session, event in sorted(events):
        trace.record(t, "protocol", event, pid=pid, session=session)
    return trace


class TestSessionEntryRule:
    def test_legal_history_passes(self):
        # All three processes enter session 1 before anyone starts session 2.
        trace = _session_trace(
            entries=[(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0), (1.0, 0, 1), (1.1, 1, 1), (1.2, 2, 1)],
            starts=[(5.0, 0, 2)],
        )
        report = check_session_entry_rule(trace, n=3)
        assert report.ok
        assert report.checked == 1
        report.raise_if_violated()

    def test_premature_start_detected(self):
        # Only one process ever entered session 1, yet someone starts session 2.
        trace = _session_trace(
            entries=[(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0), (1.0, 0, 1)],
            starts=[(2.0, 0, 2)],
        )
        report = check_session_entry_rule(trace, n=3)
        assert not report.ok
        with pytest.raises(InvariantViolation):
            report.raise_if_violated()

    def test_sessions_zero_and_one_unconstrained(self):
        trace = _session_trace(entries=[(0.0, 0, 0)], starts=[(1.0, 0, 1)])
        report = check_session_entry_rule(trace, n=3)
        assert report.ok
        assert report.checked == 0


class TestRotatingRoundEntry:
    def _round_trace(self, entries):
        trace = TraceRecorder()
        for t, pid, round_number, via in entries:
            trace.record(t, "protocol", "round_enter", pid=pid, round=round_number, via=via)
        return trace

    def test_timeout_entry_with_majority_passes(self):
        trace = self._round_trace(
            [
                (0.0, 0, 0, "start"),
                (0.0, 1, 0, "start"),
                (0.0, 2, 0, "start"),
                (4.0, 0, 1, "timeout"),
            ]
        )
        assert check_rotating_round_entry(trace, n=3).ok

    def test_timeout_entry_without_majority_fails(self):
        trace = self._round_trace([(0.0, 0, 0, "start"), (4.0, 0, 1, "timeout")])
        report = check_rotating_round_entry(trace, n=3)
        assert not report.ok

    def test_jump_entries_are_not_constrained(self):
        trace = self._round_trace([(0.0, 0, 0, "start"), (1.0, 0, 5, "jump")])
        assert check_rotating_round_entry(trace, n=3).ok


class TestPhase2aInvariants:
    def test_unique_value_per_ballot(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "phase2a", pid=0, ballot=5, value="v")
        trace.record(2.0, "protocol", "phase2a", pid=0, ballot=5, value="v")
        assert check_unique_phase2a_value(trace, n=3).ok

    def test_conflicting_values_detected(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "phase2a", pid=0, ballot=5, value="v")
        trace.record(2.0, "protocol", "phase2a", pid=1, ballot=5, value="w")
        assert not check_unique_phase2a_value(trace, n=3).ok

    def test_ownership_check(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "phase2a", pid=2, ballot=5, value="v")  # 5 % 3 == 2: ok
        assert check_single_session_leadership(trace, n=3).ok
        trace.record(2.0, "protocol", "phase2a", pid=1, ballot=6, value="v")  # 6 % 3 == 0: bad
        assert not check_single_session_leadership(trace, n=3).ok


class TestChecksWithNothingToCheck:
    def test_full_trace_with_nothing_to_check_passes(self):
        report = check_session_entry_rule(TraceRecorder(), n=3)
        assert report.ok and report.checked == 0


def _premature_session_start(trace, n, end):
    trace.record(end + 1.0, "protocol", "start_phase1", pid=0, ballot=1000 * n, session=1000)


def _premature_round_entry(trace, n, end):
    trace.record(end + 1.0, "protocol", "round_enter", pid=0, round=1000, via="timeout")


def _conflicting_phase2a(trace, n, end):
    proposal = trace.filter(event="phase2a", category="protocol")[0]
    ballot = proposal.fields["ballot"]
    trace.record(end + 1.0, "protocol", "phase2a", pid=ballot % n, ballot=ballot, value="conflict")


def _foreign_phase2a(trace, n, end):
    proposal = trace.filter(event="phase2a", category="protocol")[0]
    ballot = proposal.fields["ballot"]
    trace.record(
        end + 1.0, "protocol", "phase2a", pid=(ballot + 1) % n, ballot=ballot,
        value=proposal.fields.get("value"),
    )


# Each trace check, a protocol whose partitioned-chaos run gives it events to
# check, and a record that breaks the rule the check enforces.
REAL_RUN_CASES = {
    "session-entry-rule": (check_session_entry_rule, "modified-paxos", _premature_session_start),
    "round-entry-rule": (check_rotating_round_entry, "rotating-coordinator", _premature_round_entry),
    "unique-phase2a-value": (check_unique_phase2a_value, "traditional-paxos", _conflicting_phase2a),
    "single-session-leadership": (
        check_single_session_leadership, "modified-paxos", _foreign_phase2a
    ),
}


class TestChecksOnRealRuns:
    @pytest.mark.parametrize("name", sorted(REAL_RUN_CASES))
    def test_check_reads_the_whole_run_trace(self, name):
        check, protocol, break_rule = REAL_RUN_CASES[name]
        scenario = make_scenario("partitioned-chaos", n=5, seed=1, params=make_params(rho=0.01))
        result = run_scenario(scenario, protocol)
        trace = result.simulator.trace
        report = check(trace, n=5)
        assert report.name == name
        assert report.ok and report.checked > 0
        # A record appended after the last event still reaches the check.
        break_rule(trace, 5, result.simulator.now())
        broken = check(trace, n=5)
        assert not broken.ok
        with pytest.raises(InvariantViolation, match=name):
            broken.raise_if_violated()


class TestSmrSessionEntryRule:
    """The SMR runner checks the session-entry rule on the trace of the run itself."""

    N = 5

    def _run(self, monkeypatch, **kwargs):
        from repro.smr.runner import run_smr
        from repro.smr.workload import ScheduleSpec

        # smr-churn at n=5, seed 1 starts one session >= 2.  The patch makes
        # that start jump far past every session a majority has entered.
        original = TraceRecorder.record

        def premature(self, time, category, event, pid=None, **fields):
            if event == "start_phase1" and fields.get("session", 0) >= 2:
                fields["session"] = 1000
            original(self, time, category, event, pid, **fields)

        monkeypatch.setattr(TraceRecorder, "record", premature)
        scenario = make_scenario("smr-churn", n=self.N, seed=1)
        schedule = ScheduleSpec(num_commands=2, start=10.0, interval=1.0)
        return run_smr(scenario, schedule.to_schedule(len(scenario.deciders())), **kwargs)

    def test_smr_run_fails_loudly_on_a_premature_start(self, monkeypatch):
        with pytest.raises(InvariantViolation, match="session-entry-rule"):
            self._run(monkeypatch)

    def test_smr_report_is_not_ok_when_not_enforced(self, monkeypatch):
        result = self._run(monkeypatch, enforce_consistency=False)
        report = result.invariants["session-entry-rule"]
        assert report.checked == 1
        assert not report.ok
        assert "started session 1000" in report.violations[0]
