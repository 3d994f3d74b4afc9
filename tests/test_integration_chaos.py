"""Integration: the paper's headline claims under pre-stabilization chaos (E1/E4).

These are the tests that actually check the reproduction: after an
adversarial pre-``TS`` period (partitions, loss, deferred messages, crashes,
restarts), the modified algorithms decide within the analytic ``O(δ)`` bound
of the stabilization time, for every seed tried, at several system sizes —
while remaining safe.
"""

import pytest

from repro.analysis.invariants import check_session_entry_rule, check_unique_phase2a_value
from repro.core.timing import decision_bound
from repro.harness.runner import run_scenario

from tests.helpers import make_params, make_scenario

PARAMS = make_params(rho=0.01)
BOUND = decision_bound(PARAMS)
TS = 8.0


class TestModifiedPaxosUnderChaos:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_decides_within_bound_after_partitioned_chaos(self, n, seed):
        scenario = make_scenario("partitioned-chaos", n=n, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all, f"undecided: {result.metrics.decisions.undecided}"
        assert result.safety.valid
        lag = result.max_lag_after_ts()
        assert lag is not None and lag <= BOUND

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decides_within_bound_after_lossy_chaos(self, seed):
        scenario = make_scenario("lossy-chaos", n=7, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.safety.valid
        assert result.max_lag_after_ts() <= BOUND

    def test_lag_does_not_grow_with_n(self):
        """The heart of claim C1: post-TS decision lag is flat in N."""
        lags = {}
        for n in (3, 9, 15):
            scenario = make_scenario("partitioned-chaos", n=n, params=PARAMS, ts=TS, seed=5)
            result = run_scenario(scenario, "modified-paxos")
            lags[n] = result.max_lag_after_ts()
        assert all(lag is not None and lag <= BOUND for lag in lags.values())
        # Explicitly: the large system is not an O(N) factor slower.
        assert lags[15] <= lags[3] + 8.0 * PARAMS.delta

    def test_no_decision_before_stabilization_under_partition(self):
        scenario = make_scenario("partitioned-chaos", n=7, params=PARAMS, ts=TS, seed=4)
        result = run_scenario(scenario, "modified-paxos")
        for record in result.simulator.decisions.values():
            assert record.time >= TS

    def test_session_invariants_hold_on_chaos_traces(self):
        scenario = make_scenario("partitioned-chaos", n=7, params=PARAMS, ts=TS, seed=6)
        result = run_scenario(scenario, "modified-paxos")
        session_report = check_session_entry_rule(result.simulator.trace, 7)
        value_report = check_unique_phase2a_value(result.simulator.trace, 7)
        assert session_report.ok
        assert value_report.ok

    def test_sessions_stay_low_despite_long_chaos(self):
        """The majority-entry rule caps session numbers: chaos cannot inflate them."""
        scenario = make_scenario("partitioned-chaos", n=7, params=PARAMS, ts=20.0, seed=7)
        result = run_scenario(scenario, "modified-paxos")
        assert result.metrics.max_session is not None
        assert result.metrics.max_session <= 4

    @pytest.mark.parametrize("n, seed", [(7, 1), (7, 2), (9, 1), (9, 2), (9, 3)])
    def test_bound_holds_even_with_worst_case_post_ts_delays(self, n, seed):
        """Every post-TS delivery takes the full δ; the bound must still hold."""
        scenario = make_scenario("partitioned-chaos",
            n=n, params=PARAMS, ts=TS, seed=seed, worst_case_post_delays=True
        )
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.safety.valid
        lag = result.max_lag_after_ts()
        assert lag is not None and lag <= BOUND
        # Worst-case delays are genuinely slower than the random-delay runs.
        relaxed = run_scenario(
            make_scenario("partitioned-chaos", n=n, params=PARAMS, ts=TS, seed=seed), "modified-paxos"
        )
        assert lag >= relaxed.max_lag_after_ts()

    def test_longer_session_timers_slow_recovery(self):
        """Why the paper pins the session timer to Θ(δ): a 16δ timer recovers later than 4δ."""
        lags = {}
        for factor in (4.0, 8.0, 16.0):
            params = make_params(rho=0.01, session_timeout_factor=factor)
            scenario = make_scenario("partitioned-chaos", n=7, params=params, ts=TS, seed=2)
            lags[factor] = run_scenario(scenario, "modified-paxos").max_lag_after_ts()
        assert all(lag is not None for lag in lags.values())
        assert lags[16.0] > lags[4.0]

    def test_sparse_keepalive_still_decides_but_slower(self):
        """With ε = 8δ, post-TS recovery leans on session timeouts alone."""
        lags = []
        for params in (PARAMS, PARAMS.with_epsilon(8.0 * PARAMS.delta)):
            scenario = make_scenario("partitioned-chaos", n=7, params=params, ts=TS, seed=3)
            lags.append(run_scenario(scenario, "modified-paxos").max_lag_after_ts())
        fast, slow = lags
        assert fast is not None and slow is not None
        assert slow >= fast


class TestModifiedBConsensusUnderChaos:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_decides_quickly_and_safely(self, n, seed):
        scenario = make_scenario("partitioned-chaos", n=n, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, "modified-b-consensus")
        assert result.decided_all
        assert result.safety.valid
        # No closed-form bound in the paper; "about the same" as Modified
        # Paxos - allow a generous constant, still O(delta) and independent of N.
        assert result.max_lag_after_ts() <= 2.0 * BOUND

    def test_modification_sends_no_more_messages_than_original(self):
        """Round jumping plus current-round-only retransmission (Section 5) saves messages."""
        sent = {}
        for protocol in ("modified-b-consensus", "b-consensus"):
            results = [
                run_scenario(make_scenario("partitioned-chaos", n=7, params=PARAMS, ts=TS, seed=seed), protocol)
                for seed in (1, 2, 3)
            ]
            assert all(result.decided_all for result in results)
            sent[protocol] = sum(result.metrics.messages_sent for result in results)
        assert sent["modified-b-consensus"] <= 1.1 * sent["b-consensus"]

    def test_original_bconsensus_is_safe_under_chaos(self):
        scenario = make_scenario("partitioned-chaos", n=5, params=PARAMS, ts=TS, seed=3)
        result = run_scenario(scenario, "b-consensus")
        assert result.safety.valid
        assert result.decided_all


class TestBaselinesUnderChaosStaySafe:
    """The baselines may be slow, but they must never violate safety."""

    @pytest.mark.parametrize("protocol", ["traditional-paxos", "rotating-coordinator"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_safety_under_partitioned_chaos(self, protocol, seed):
        scenario = make_scenario("partitioned-chaos", n=7, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, protocol)
        assert result.safety.valid
        assert result.decided_all
