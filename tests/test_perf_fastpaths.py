"""Tests for the PR2 hot-path fast paths.

Covers the three behavioural surfaces the allocation-free refactor touched:

* ``cancellable=False`` scheduling through the simulator,
* ``record_envelopes=False`` runs (monitor counters must stay correct while
  the per-envelope log stays empty),
* per-network ``msg_id`` streams (deterministic without any global reset
  helper),

plus the seeded-equivalence oracle: three protocols x three workloads whose
decision/trace digests were captured on the pre-refactor tree (PR1, commit
dcb8a75).  Any change to event ordering, RNG consumption, envelope ids, or
trace payloads shows up here as a digest mismatch.
"""

import hashlib
import json

import pytest

from repro.core.messages import Phase1a
from repro.harness.executors import RunTask
from repro.harness.experiment import ExperimentSpec
from repro.harness.runner import run_scenario
from repro.net.message import Envelope, Era
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.params import TimingParams
from repro.sim.rng import SeededRng
from repro.workloads.registry import default_workload_registry
from repro.workloads.stable import stable_scenario

PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)

# sha256 digests captured on the pre-refactor tree (see module docstring).
ORACLE_DIGESTS = {
    "modified-paxos/stable": "9cb940af944164acba32a0b056c953f898e8ea3ad13b43708bddc4f39e77efcd",
    "modified-paxos/partitioned-chaos": "4c0c7007400b795b2ffed590b219b198c4faddc911e67d08a23348bef8de13ff",
    "modified-paxos/lossy-chaos": "c11fdf1d9d5293c9dc1ac273d40e689706d24f0f88380c29e2f81b8ef053b37d",
    "traditional-paxos/stable": "f03fa429a9583e1844de6b7005e43ba5abd19614ed713df8dc20eca977347938",
    "traditional-paxos/partitioned-chaos": "3b7ab410be46c66e8b540f2b20d4b05ae5852327ba90899e4bfa35d21da0b452",
    "traditional-paxos/lossy-chaos": "28ed1355c0dd660aa9714eda8efb46b616685e46a675faadd7be4d66b5f06e32",
    "rotating-coordinator/stable": "92425bfd35ebea8bb10422706b31d4ae0ce4f932bf6b5c0872f9eb58357b786d",
    "rotating-coordinator/partitioned-chaos": "f4d9b11aa1c88852d3c3891c907cb8290589c448e4c00da780d4a9cc598d98c5",
    "rotating-coordinator/lossy-chaos": "6ad0549fb8399773c4813dd99f52bf49ca9d86938739e32e7276573f804a9b4f",
}

WORKLOAD_KWARGS = {
    "stable": {"n": 5, "seed": 7},
    "partitioned-chaos": {"n": 5, "seed": 7, "ts": 10.0},
    "lossy-chaos": {"n": 5, "seed": 7, "ts": 10.0},
}


def run_digest(protocol: str, workload: str) -> str:
    """Digest of everything observable about one seeded run."""
    scenario = default_workload_registry().create(
        workload, params=PARAMS, **WORKLOAD_KWARGS[workload]
    )
    result = run_scenario(scenario, protocol)
    sim = result.simulator
    payload = {
        "decisions": [
            (r.pid, repr(r.value), round(r.time, 9), r.incarnation)
            for r in sorted(sim.all_decisions, key=lambda r: (r.time, r.pid))
        ],
        "events_processed": sim.events_processed,
        "sent": sim.network.monitor.stats.sent,
        "delivered": sim.network.monitor.stats.delivered,
        "trace": [
            (round(e.time, 9), e.category, e.event, e.pid,
             sorted((k, repr(v)) for k, v in e.fields.items()))
            for e in sim.trace
        ],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestSeededEquivalence:
    @pytest.mark.parametrize("key", sorted(ORACLE_DIGESTS))
    def test_run_matches_pre_refactor_oracle(self, key):
        protocol, workload = key.split("/")
        assert run_digest(protocol, workload) == ORACLE_DIGESTS[key]


class TestCancellableFastPath:
    def test_schedule_without_handle_fires(self):
        scenario = stable_scenario(3, params=PARAMS, seed=1)
        result = run_scenario(scenario, "modified-paxos")
        sim = result.simulator
        calls = []
        handle = sim.schedule_at(sim.now() + 1.0, calls.append, args=("fired",),
                                 cancellable=False)
        assert handle is None
        sim.run(until=sim.now() + 2.0)
        assert calls == ["fired"]

    def test_schedule_in_fast_path(self):
        scenario = stable_scenario(3, params=PARAMS, seed=1)
        result = run_scenario(scenario, "modified-paxos")
        sim = result.simulator
        calls = []
        assert sim.schedule_in(0.5, calls.append, args=("x",), cancellable=False) is None
        sim.run(until=sim.now() + 1.0)
        assert calls == ["x"]


class TestEnvelopeLogOptOut:
    def _run(self, record_envelopes):
        scenario = stable_scenario(5, params=PARAMS, seed=3)
        return run_scenario(
            scenario, "modified-paxos", record_envelopes=record_envelopes
        )

    def test_log_disabled_keeps_monitor_counters(self):
        logged = self._run(True)
        unlogged = self._run(False)

        assert unlogged.simulator.network.envelopes == ()
        assert len(logged.simulator.network.envelopes) > 0

        on, off = logged.simulator.network.monitor.stats, unlogged.simulator.network.monitor.stats
        assert on.sent == off.sent > 0
        assert on.delivered == off.delivered > 0
        assert dict(on.by_kind) == dict(off.by_kind)
        assert dict(on.delivered_by_kind) == dict(off.delivered_by_kind)

    def test_log_disabled_runs_decide_identically(self):
        logged = self._run(True)
        unlogged = self._run(False)
        assert (
            {p: r.value for p, r in logged.simulator.decisions.items()}
            == {p: r.value for p, r in unlogged.simulator.decisions.items()}
        )
        assert logged.simulator.events_processed == unlogged.simulator.events_processed

    def test_envelopes_view_is_read_only(self):
        result = self._run(True)
        view = result.simulator.network.envelopes
        assert isinstance(view, tuple)

    def test_envelopes_view_is_cached_until_log_grows(self):
        result = self._run(True)
        network = result.simulator.network
        assert network.envelopes is network.envelopes  # O(1) repeat access
        before = network.envelopes
        network.send(Phase1a(mbal=99), src=0, dst=1)
        after = network.envelopes
        assert len(after) == len(before) + 1
        assert after[-1].message.mbal == 99

    def test_executed_tasks_run_with_log_off(self, monkeypatch):
        import repro.harness.executors as executors

        flags = []

        def recording_run_scenario(*args, **kwargs):
            flags.append(kwargs["record_envelopes"])
            return run_scenario(*args, **kwargs)

        monkeypatch.setattr(executors, "run_scenario", recording_run_scenario)
        spec = ExperimentSpec(workload="stable", protocols=("modified-paxos",), seeds=(1,),
                              base={"n": 3, "params": PARAMS})
        for task in spec.tasks() + [RunTask(protocol="modified-paxos", workload="stable",
                                            workload_kwargs={"n": 3, "params": PARAMS})]:
            executors.execute_task(task)
        assert flags == [False, False]


class TestPerNetworkMessageIds:
    def _network(self):
        network = Network(
            model=EventualSynchrony(ts=0.0, delta=1.0), rng=SeededRng(1, label="net")
        )

        class _Host:
            time = 0.0

            def now(self):
                return self.time

            def schedule_at(self, time, action, *, label="", args=(), cancellable=True):
                return None

            def deliver_envelope(self, envelope):
                return True

        network.bind(_Host())
        return network

    def test_fresh_networks_start_at_zero(self):
        for _ in range(2):  # back-to-back networks, no reset helper needed
            network = self._network()
            ids = [network.send(Phase1a(mbal=1), src=0, dst=1).msg_id for _ in range(3)]
            assert ids == [0, 1, 2]

    def test_concurrent_networks_have_independent_streams(self):
        a, b = self._network(), self._network()
        assert a.send(Phase1a(mbal=1), 0, 1).msg_id == 0
        assert a.send(Phase1a(mbal=1), 0, 1).msg_id == 1
        assert b.send(Phase1a(mbal=1), 0, 1).msg_id == 0

    def test_inject_shares_the_network_stream(self):
        network = self._network()
        sent = network.send(Phase1a(mbal=1), 0, 1)
        injected = network.inject(Phase1a(mbal=9), src=1, dst=0, deliver_time=5.0)
        assert injected.msg_id == sent.msg_id + 1
        assert injected.era is Era.PRE

    def test_no_other_in_repo_callers_remain(self):
        # The global reset helper is gone: every caller moved to per-network
        # id streams, so nothing may call it again.
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        hits = []
        for path in (root / "src").rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            if "reset_envelope_ids(" in text:
                hits.append(str(path))
        assert hits == []
        # And importing the package must not emit a deprecation warning.
        code = (
            "import warnings; warnings.simplefilter('error', DeprecationWarning); "
            "import repro"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_direct_envelopes_still_get_unique_fallback_ids(self):
        first = Envelope(message=Phase1a(mbal=1), src=0, dst=1, send_time=0.0, era=Era.POST)
        second = Envelope(message=Phase1a(mbal=1), src=0, dst=1, send_time=0.0, era=Era.POST)
        assert first.msg_id != second.msg_id
