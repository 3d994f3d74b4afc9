"""Tests for the PR2 hot-path fast paths.

Covers the three behavioural surfaces the allocation-free refactor touched:

* ``cancellable=False`` scheduling through the simulator,
* ``record_envelopes=False`` runs (monitor counters must stay correct while
  the per-envelope log stays empty),
* per-network ``msg_id`` streams (deterministic without any global reset
  helper),

plus the seeded-equivalence oracle: three protocols x three workloads whose
decision/trace/envelope digests pin every observable of a seeded run.  Any
change to event ordering, RNG consumption, envelope ids, or trace payloads
shows up here as a digest mismatch.  The digests were first captured on the
pre-refactor tree (commit dcb8a75), when the trace still held a record per
message and timer firing; they were recaptured when those records left the
trace, with the envelope log taking their place in the digest, after checking
that the previous tree (still matching the first digests) gives the same new
digests once its per-message and timer records are filtered out.
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

from tests.helpers import make_scenario

PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)

# sha256 digests of run_digest (see module docstring).
ORACLE_DIGESTS = {
    "modified-paxos/stable": "b1d2433b51f7329c8c2eb98e807138c7408407937db460355faf9adae54ae90e",
    "modified-paxos/partitioned-chaos": "25d5978cf04ee0ad34b4508235b9c8e8674ef218fe4f270e8d144c5e2d4efc39",
    "modified-paxos/lossy-chaos": "35c29c92ffab70698253792b68b1cf3dd604c7ccb94bf88524ea33d55fea35df",
    "traditional-paxos/stable": "31d4d9b486de4dfd6b6e1f60db5608de05dc87e665ae0ed1d22f832e2536ca82",
    "traditional-paxos/partitioned-chaos": "1081d6ba625e8603ab7bbc1b98856cdfd3f3ab9a81c020096eeabb5b45422c76",
    "traditional-paxos/lossy-chaos": "ec30087756e67d6a46bcc30f5cac24f4ed7d1163ce9fd2b66ce71fb065cefbdb",
    "rotating-coordinator/stable": "55c7a04620a06cb14f9f08927055e2b6e1fdfc690d2498cd521fdf3572c245af",
    "rotating-coordinator/partitioned-chaos": "4ddcac5e808e793f7f8980ec3389009132675ba99eb7d29c35549d6b44ad0225",
    "rotating-coordinator/lossy-chaos": "9d4039ea2c9f171574327a712223aa07b459023a2831924fb3349ae8a9ab49fa",
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
        "envelopes": [
            (e.msg_id, e.src, e.dst, e.kind, round(e.send_time, 9),
             None if e.deliver_time is None else round(e.deliver_time, 9),
             e.dropped, e.duplicated_from)
            for e in sim.network.envelopes
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
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1)
        result = run_scenario(scenario, "modified-paxos")
        sim = result.simulator
        calls = []
        handle = sim.schedule_at(sim.now() + 1.0, calls.append, args=("fired",),
                                 cancellable=False)
        assert handle is None
        sim.run(until=sim.now() + 2.0)
        assert calls == ["fired"]

    def test_schedule_in_fast_path(self):
        scenario = make_scenario("stable", n=3, params=PARAMS, seed=1)
        result = run_scenario(scenario, "modified-paxos")
        sim = result.simulator
        calls = []
        assert sim.schedule_in(0.5, calls.append, args=("x",), cancellable=False) is None
        sim.run(until=sim.now() + 1.0)
        assert calls == ["x"]


class TestEnvelopeLogOptOut:
    def _run(self, record_envelopes):
        scenario = make_scenario("stable", n=5, params=PARAMS, seed=3)
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
