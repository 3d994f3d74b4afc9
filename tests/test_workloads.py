"""Unit tests for the scenario builders (`repro.workloads`)."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.runner import run_scenario
from repro.net.message import Era
from repro.sim.rng import SeededRng

from tests.helpers import make_params, make_scenario


class TestStableScenario:
    def test_ts_zero_and_no_faults(self):
        scenario = make_scenario("stable", n=5, params=make_params(), seed=1)
        assert scenario.config.ts == 0.0
        assert len(scenario.fault_plan) == 0
        assert scenario.deciders() == [0, 1, 2, 3, 4]

    def test_network_is_always_post_stabilization(self):
        scenario = make_scenario("stable", n=3, params=make_params(), seed=1)
        network = scenario.build_network(scenario.config, SeededRng(0))
        assert network.model.era(0.0) is Era.POST


class TestChaosScenarios:
    @pytest.mark.parametrize("workload", ["partitioned-chaos", "lossy-chaos"])
    def test_fault_plan_valid_for_the_model(self, workload):
        scenario = make_scenario(workload, n=7, params=make_params(), ts=8.0, seed=3)
        scenario.fault_plan.validate(7, ts=8.0)
        assert scenario.config.ts == 8.0

    @pytest.mark.parametrize("workload", ["partitioned-chaos", "lossy-chaos"])
    def test_deciders_excludes_permanently_down(self, workload):
        scenario = make_scenario(workload, n=7, params=make_params(), ts=8.0, seed=3)
        down = scenario.fault_plan.final_down()
        assert set(scenario.deciders()) == set(range(7)) - down

    def test_describe_mentions_name_and_faults(self):
        scenario = make_scenario("partitioned-chaos", n=5, params=make_params(), ts=6.0, seed=2)
        text = scenario.describe()
        assert "partitioned-chaos-n5" in text
        assert "ts=6" in text

    def test_network_builds_and_differs_by_seed(self):
        scenario = make_scenario("partitioned-chaos", n=6, params=make_params(), ts=6.0, seed=2)
        network = scenario.build_network(scenario.config, SeededRng(1))
        assert network.model.ts == 6.0


class TestObsoleteScenario:
    def test_defaults_use_max_reachable_obsolete_count(self):
        scenario = make_scenario("obsolete-ballots", n=9, params=make_params(), seed=0)
        assert "k4" in scenario.name
        assert len(scenario.fault_plan.final_down()) == 4
        assert scenario.deciders() == [0, 1, 2, 3, 4]

    def test_rejects_too_many_obsolete(self):
        with pytest.raises(ConfigurationError):
            make_scenario("obsolete-ballots", n=5, params=make_params(), num_obsolete=3)

    def test_rejects_tiny_system(self):
        with pytest.raises(ConfigurationError):
            make_scenario("obsolete-ballots", n=2, params=make_params())

    def test_rejects_small_ballot_stride(self):
        with pytest.raises(ConfigurationError):
            make_scenario("obsolete-ballots", n=5, params=make_params(), ballot_stride=2)

    def test_horizon_scales_with_k(self):
        small = make_scenario("obsolete-ballots", n=5, params=make_params(), num_obsolete=0)
        large = make_scenario("obsolete-ballots", n=5, params=make_params(), num_obsolete=2)
        assert large.config.max_time > small.config.max_time

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_rejects_non_positive_poll_interval(self, factor):
        # A zero interval used to re-poll forever without advancing time.
        with pytest.raises(ConfigurationError, match="poll_interval_factor"):
            make_scenario("obsolete-ballots", n=5, params=make_params(),
                          poll_interval_factor=factor)

    @pytest.mark.parametrize("protocol", ["traditional-paxos", "modified-paxos"])
    def test_every_release_is_traced(self, protocol):
        # Modified Paxos has no proposer to watch, so it takes the
        # fixed-schedule release path; both paths trace each release.
        scenario = make_scenario("obsolete-ballots", n=7, params=make_params(), seed=1)
        result = run_scenario(scenario, protocol)
        assert len(result.simulator.trace.filter(event="obsolete_release")) == 3


class TestCoordinatorCrashScenario:
    def test_crashes_lowest_ids(self):
        scenario = make_scenario("coordinator-crash", n=7, params=make_params(), num_faulty=2)
        assert scenario.fault_plan.final_down() == {0, 1}
        assert scenario.deciders() == [2, 3, 4, 5, 6]

    def test_rejects_more_than_minority(self):
        with pytest.raises(ConfigurationError):
            make_scenario("coordinator-crash", n=7, params=make_params(), num_faulty=4)

    def test_zero_faulty_allowed(self):
        scenario = make_scenario("coordinator-crash", n=5, params=make_params(), num_faulty=0)
        assert scenario.fault_plan.final_down() == set()


class TestRestartScenario:
    def test_restarts_scheduled_after_ts(self):
        scenario = make_scenario("restarts",
            n=7, params=make_params(), ts=10.0, restart_offsets=[5.0, 20.0]
        )
        restarts = [event for event in scenario.fault_plan if event.kind.value == "restart"]
        assert [event.time for event in restarts] == [15.0, 30.0]
        scenario.fault_plan.validate(7, ts=10.0)
        assert scenario.deciders() == list(range(7))

    def test_offsets_truncated_to_minority(self):
        scenario = make_scenario("restarts",
            n=3, params=make_params(), restart_offsets=[1.0, 2.0, 3.0]
        )
        assert len(scenario.fault_plan.final_down()) == 0
        assert len([e for e in scenario.fault_plan if e.kind.value == "crash"]) == 1

    def test_rejects_tiny_system(self):
        with pytest.raises(ConfigurationError):
            make_scenario("restarts", n=2, params=make_params())
