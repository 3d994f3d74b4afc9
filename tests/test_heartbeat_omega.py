"""Tests for the heartbeat-based Ω and the Paxos variant that uses it."""

import pytest

from repro.consensus.paxos.heartbeat_paxos import HeartbeatPaxosBuilder, HeartbeatPaxosProcess
from repro.errors import ConfigurationError
from repro.harness.runner import run_scenario
from repro.oracle.heartbeat import Heartbeat, HeartbeatElector

from tests.helpers import ContextHarness, make_params, make_scenario


def make_elector(pid=0, n=3, timeout_factor=2.5):
    harness = ContextHarness(pid=pid, n=n, params=make_params(rho=0.0))
    elector = HeartbeatElector(harness.ctx, timeout_factor=timeout_factor)
    elector.start()
    return harness, elector


class TestHeartbeatElector:
    def test_start_broadcasts_heartbeat_and_arms_timer(self):
        harness, elector = make_elector(pid=1)
        beats = harness.sent_of_kind("heartbeat")
        assert sorted(item.dst for item in beats) == [0, 2]
        assert "omega-heartbeat" in harness.timers
        assert elector.heartbeats_sent == 1

    def test_timer_resends_heartbeats(self):
        harness, elector = make_elector()
        harness.clear_sent()
        harness.timers.pop("omega-heartbeat", None)
        elector.on_timer("omega-heartbeat")
        assert harness.sent_of_kind("heartbeat")
        assert elector.heartbeats_sent == 2
        assert "omega-heartbeat" in harness.timers

    def test_without_any_heartbeats_trusts_only_itself(self):
        _, elector = make_elector(pid=2)
        assert elector.trusted() == {2}
        assert elector.leader() == 2
        assert elector.believes_self_leader()

    def test_hearing_lower_pid_changes_leader(self):
        harness, elector = make_elector(pid=2)
        elector.on_message(Heartbeat(sender=0))
        assert elector.leader() == 0
        assert not elector.believes_self_leader()

    def test_silence_beyond_timeout_evicts_a_process(self):
        harness, elector = make_elector(pid=2, timeout_factor=2.5)
        elector.on_message(Heartbeat(sender=0))
        harness.advance_local_time(2.0)
        assert 0 in elector.trusted()
        harness.advance_local_time(1.0)  # total 3.0 > timeout 2.5
        assert 0 not in elector.trusted()
        assert elector.leader() == 2

    def test_fresh_heartbeats_keep_trust(self):
        harness, elector = make_elector(pid=2)
        for _ in range(4):
            elector.on_message(Heartbeat(sender=1))
            harness.advance_local_time(1.0)
        assert 1 in elector.trusted()

    def test_message_and_timer_routing_predicates(self):
        _, elector = make_elector()
        assert elector.handles_message(Heartbeat(sender=0))
        assert not elector.handles_message(object())
        assert elector.handles_timer("omega-heartbeat")
        assert not elector.handles_timer("session")

    def test_parameter_validation(self):
        harness = ContextHarness(params=make_params())
        with pytest.raises(ConfigurationError):
            HeartbeatElector(harness.ctx, period_factor=0.0)
        with pytest.raises(ConfigurationError):
            HeartbeatElector(harness.ctx, period_factor=1.0, timeout_factor=1.5)


class TestHeartbeatPaxos:
    def test_builder_registered_and_creates_processes(self):
        builder = HeartbeatPaxosBuilder()
        assert isinstance(builder.create(0), HeartbeatPaxosProcess)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_stable_case_decides_safely(self, seed):
        params = make_params(rho=0.01)
        result = run_scenario(make_scenario("stable", n=5, params=params, seed=seed),
                              "traditional-paxos-heartbeat")
        assert result.decided_all
        assert result.safety.valid

    def test_decides_after_chaos_and_crashed_processes(self):
        params = make_params(rho=0.01)
        scenario = make_scenario("coordinator-crash", n=7, params=params, seed=3, num_faulty=2)
        result = run_scenario(scenario, "traditional-paxos-heartbeat")
        assert result.decided_all
        assert result.safety.valid

    @pytest.mark.parametrize("n, seed", [(5, 4), (7, 1), (7, 2), (7, 3)])
    def test_heartbeat_election_costs_little_extra_vs_omniscient(self, n, seed):
        """The message-based election adds at most a few δ over the granted oracle."""
        params = make_params(rho=0.01)
        lags = {}
        for protocol in ("traditional-paxos", "traditional-paxos-heartbeat"):
            scenario = make_scenario("partitioned-chaos", n=n, params=params, ts=8.0, seed=seed)
            result = run_scenario(scenario, protocol)
            assert result.decided_all
            lags[protocol] = result.max_lag_after_ts()
        assert lags["traditional-paxos-heartbeat"] <= lags["traditional-paxos"] + 6.0
