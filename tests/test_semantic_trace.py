"""The trace holds only semantic events; the envelope log holds the messages.

* an executed E1-style run records no per-message or timer records, and its
  invariant checks still see what they saw when the trace held those;
* every event a smoke-scale E1–E9 campaign records is declared in
  :data:`~repro.analysis.trace.TRACE_EVENTS`, with its declared fields;
* the envelope log accounts for every message the monitor counted;
* an independent oracle over the envelope log for the post-``TS`` send rate
  that E6 reports.
"""

import pytest

from repro.analysis.trace import TRACE_EVENTS, TraceRecorder
from repro.harness.campaign import run_campaign
from repro.harness.executors import RunTask, build_task_scenario, snapshot_outcome
from repro.harness.experiments import default_experiment_params
from repro.harness.runner import run_scenario

PER_MESSAGE_EVENTS = {
    ("net", "send"),
    ("net", "deliver"),
    ("net", "deliver_to_crashed"),
    ("node", "timer"),
}


def _chaos_run(workload="partitioned-chaos", n=9, seed=1, ts=10.0, params=None):
    task = RunTask(
        protocol="modified-paxos",
        workload=workload,
        workload_kwargs={
            "n": n, "seed": seed, "ts": ts,
            "params": params if params is not None else default_experiment_params(),
        },
    )
    return run_scenario(build_task_scenario(task), task.protocol)


def test_e1_run_at_n31_records_no_messages_or_timers():
    result = _chaos_run(n=31)
    trace = result.simulator.trace
    recorded = {(event.category, event.event) for event in trace}
    assert not recorded & PER_MESSAGE_EVENTS
    assert result.simulator.network.monitor.stats.sent > 20_000
    # Seed 1 checked 12 session entries when every message was traced too.
    report = result.invariants["session-entry-rule"]
    assert report.ok and report.checked == 12
    assert len(trace) < 250


def test_smoke_campaign_records_only_declared_events(monkeypatch):
    seen = {}
    original = TraceRecorder.record

    def recording(self, time, category, event, pid=None, **fields):
        seen.setdefault((category, event), set()).add(frozenset(fields))
        original(self, time, category, event, pid, **fields)

    monkeypatch.setattr(TraceRecorder, "record", recording)
    run_campaign(scale="smoke")

    undeclared = set(seen) - set(TRACE_EVENTS)
    assert not undeclared
    for key, shapes in seen.items():
        kind = TRACE_EVENTS[key]
        for keys in shapes:
            assert set(kind.fields) <= keys <= set(kind.fields) | set(kind.optional), (key, keys)
    # The campaign exercises the whole vocabulary, so no declared event is stale.
    assert set(seen) == set(TRACE_EVENTS)


@pytest.mark.parametrize("workload", ["partitioned-chaos", "lossy-chaos"])
def test_envelope_log_accounts_for_every_message(workload):
    network = _chaos_run(workload=workload).simulator.network
    stats = network.monitor.stats
    envelopes = network.envelopes
    originals = [envelope for envelope in envelopes if envelope.duplicated_from is None]
    assert len(originals) == stats.sent
    assert len(envelopes) == stats.sent + stats.duplicated
    if workload == "partitioned-chaos":
        assert stats.duplicated == 0 and len(envelopes) == stats.sent
    assert sum(envelope.dropped for envelope in envelopes) == stats.dropped
    for envelope in envelopes:
        assert envelope.dropped != (envelope.deliver_time is not None)


@pytest.mark.parametrize("epsilon_delta", [0.05, 0.25, 1.0, 4.0])
def test_post_ts_send_rate_matches_envelope_oracle(epsilon_delta):
    base = default_experiment_params()
    params = base.with_epsilon(epsilon_delta * base.delta)
    ts = 8.0 * base.delta
    result = _chaos_run(n=9, seed=2, ts=ts, params=params)
    now = result.simulator.now()
    assert now > ts
    # Duplicate copies are not sends; the monitor counts each send once.
    sends = sum(
        1
        for envelope in result.simulator.network.envelopes
        if envelope.duplicated_from is None and ts <= envelope.send_time < now
    )
    assert sends > 0
    rate = snapshot_outcome(result).extra["post_ts_send_rate"]
    assert rate == sends / (now - ts)
