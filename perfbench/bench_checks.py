"""Correctness checks the benchmark applies to every workload's outputs.

Each check returns a list of failure messages; an empty list means the
output is correct.  The benchmark counts every failure in ``failed`` (and so
in the fail ratio) and exits non-zero when any check fails.

* Reference digests: on the default seed, the nine rendered campaign tables
  must hash to the SHA-256 of the files ``python -m repro experiments
  --scale <scale>`` writes (``<table>.render() + "\\n"``), recorded below.
* Paper shape: on every seed, the full-scale tables must show the shapes
  the paper claims (ported from ``benchmarks/test_bench_e*.py``).
* SMR: every scheduled command is learned at every replica, and every
  replica's state digest equals the digest of the commands applied in
  slot order.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict, List, Mapping, Sequence

from repro.core.timing import decision_bound, restart_decision_bound
from repro.smr.outcome import digest_string
from repro.smr.state_machine import KeyValueStore

# SHA-256 of each E*.txt written by ``python -m repro experiments --scale <scale>``.
REFERENCE_SHA256: Dict[str, Dict[str, str]] = {
    "full": {
        "E1": "9dfb305a957f4661ba2775a37a03a53c234c96705591be710a3a25e318634529",
        "E2": "53ba5d669a219202378df22483596e1ca4eb1d5db9367604be85efc81103b408",
        "E3": "da35d37cb782b82d21fdac1dcb0b05faab9a9d0065dcbac7b9e23e4088f498e0",
        "E4": "59edbf2db70493109ffff09b50622a2d124ffcf581f3b8941650178504c4dc30",
        "E5": "826a563a20bafcd9f69e4046c35bc09d5a1f467ec7d1219565dabbe30fa7b145",
        "E6": "c4f209f217dc756377c2169d0623e66af582ec65d3a040ed73768b13d599441f",
        "E7": "9c6e8540136d11f0fc72fbd45ad49b08a8a5e271c7b6ec0745c58f477497ef81",
        "E8": "6162e17484a0cea2de0405fd622082d03bde3fc5c1db7daab506fc7662e53f88",
        "E9": "30eda018c6ceab49efd3b931e5cd3969838b56780962c8a3a0092b341d6140bf",
    },
    "smoke": {
        "E1": "28fbc4d6442c7b62ede67504054f446eac05070bb39c46e82773eba0b15efe46",
        "E2": "aae18a0c369800df87acbaee42769915ab5ed5a16c4ca93929524e3115a61f23",
        "E3": "a1699c0fadc4a90565ae5b76193bf39769ddc4534b932d3f2f14eb0b159267ea",
        "E4": "63f3ccf8786448e318462e1aac6af47ad3a227cf031465dae23976f863ff99df",
        "E5": "0d3f0b855d94fb84769c396d46f194eb3cb7395dd558c0ae63c23cfa4ea494b4",
        "E6": "1f84cef49be55dfa35348cc8c5d95bf56fa0a96f0e4094f8b9469b78e353e480",
        "E7": "4930bac031ef6430b9b7ec6c2ab99c656bc7dbf428f416430957239a1382442a",
        "E8": "04a9aa16c268d51f356deaa3015fb896735925ad1e117bdfc6dd5a4e332246cd",
        "E9": "280e0dd7fc3abd833c3a36877362ad0b27a99e4ad702fed77945b62a28ccfdc4",
    },
}


def rendered_tables(tables: Sequence) -> Dict[str, str]:
    """Each table's text exactly as the campaign writes it to ``<id>.txt``."""
    return {table.experiment: table.render() + "\n" for table in tables}


def check_reference_digests(rendered: Mapping[str, str], scale: str) -> List[str]:
    failures = []
    for experiment, expected in sorted(REFERENCE_SHA256[scale].items()):
        text = rendered.get(experiment)
        if text is None:
            failures.append(f"{experiment}: table missing")
            continue
        actual = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if actual != expected:
            failures.append(f"{experiment}: sha256 {actual[:12]} != reference {expected[:12]}")
    return failures


def _shape(failures: List[str], experiment: str, condition: bool, message: str) -> None:
    if not condition:
        failures.append(f"{experiment}: {message}")


def check_paper_shape(tables: Mapping[str, object], params) -> List[str]:
    """The full-scale paper-shape assertions of ``benchmarks/test_bench_e*.py``."""
    failures: List[str] = []
    bound = decision_bound(params) / params.delta
    missing = [name for name in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9")
               if name not in tables]
    if missing:
        return [f"{name}: table missing" for name in missing]

    # E1: Modified Paxos lag within eps + 3 tau + 5 delta and flat in N.
    e1 = tables["E1"]
    lags = [lag for lag in e1.column("max_lag_delta") if lag is not None]
    _shape(failures, "E1", len(lags) == len(e1.rows), "some system size never decided")
    _shape(failures, "E1", all(lag <= bound for lag in lags), "lag above the paper bound")
    _shape(failures, "E1", sum(e1.column("undecided")) == 0, "undecided runs")
    _shape(failures, "E1", bool(lags) and max(lags) - min(lags) <= 10.0, "lag grows with N")

    # E2: traditional Paxos grows ~linearly with obsolete ballots, past the bound.
    e2 = tables["E2"]
    lags, ks = e2.column("max_lag_delta"), e2.column("obsolete_k")
    if any(lag is None for lag in lags):
        failures.append("E2: undecided system size")
    else:
        slope = (lags[-1] - lags[0]) / (ks[-1] - ks[0])
        _shape(failures, "E2", lags[-1] > lags[0] + 2.0, "lag does not grow with k")
        _shape(failures, "E2", slope >= 1.0, f"slope {slope:.2f} < 1 delta per ballot")
        _shape(failures, "E2", lags[-1] > e2.column("modified_bound_delta")[-1],
               "largest lag not above the Modified Paxos bound")

    # E3: one round timeout per crashed coordinator.
    e3 = tables["E3"]
    lags, fs = e3.column("max_lag_delta"), e3.column("faulty_f")
    if any(lag is None for lag in lags):
        failures.append("E3: undecided configuration")
    else:
        slope = (lags[-1] - lags[0]) / (fs[-1] - fs[0])
        _shape(failures, "E3", slope >= 2.0, f"slope {slope:.2f} < 2 delta per coordinator")
        _shape(failures, "E3", lags[-1] > e3.column("modified_bound_delta")[-1],
               "largest lag not above the Modified Paxos bound")

    # E4: Modified B-Consensus within 2x the bound and flat in N.
    e4 = tables["E4"]
    lags = [lag for lag in e4.column("max_lag_delta") if lag is not None]
    _shape(failures, "E4", len(lags) == len(e4.rows), "some system size never decided")
    _shape(failures, "E4", sum(e4.column("undecided")) == 0, "undecided runs")
    _shape(failures, "E4", all(lag <= 2.0 * bound for lag in lags), "lag above 2x the bound")
    _shape(failures, "E4", bool(lags) and max(lags) - min(lags) <= 12.0, "lag grows with N")

    # E5: recovery within tau + 5 delta, not degrading for later restarts.
    recoveries = tables["E5"].column("max_recovery_delta")
    restart_bound = restart_decision_bound(params) / params.delta
    if any(value is None for value in recoveries):
        failures.append("E5: a restarted process never recovered")
    else:
        _shape(failures, "E5", all(value <= restart_bound for value in recoveries),
               "recovery above tau + 5 delta")
        _shape(failures, "E5", max(recoveries) - min(recoveries) <= restart_bound,
               "recovery degrades for later restarts")

    # E6: keep-alive trades message rate against a monotone bound.
    e6 = tables["E6"]
    rates, bounds, lags = (e6.column("post_ts_msgs_per_proc_per_delta"),
                           e6.column("bound_delta"), e6.column("max_lag_delta"))
    if any(value is None for value in rates + bounds + lags):
        failures.append("E6: missing rate, bound or lag")
    else:
        _shape(failures, "E6", rates[0] > 3.0 * rates[-1], "message rate does not fall with epsilon")
        _shape(failures, "E6", all(b >= a - 1e-9 for a, b in zip(bounds, bounds[1:])),
               "bound not monotone in epsilon")
        _shape(failures, "E6", all(lag <= b for lag, b in zip(lags, bounds)), "lag above its bound")

    # E7: stable case decides in a few delta.
    e7 = tables["E7"]
    by_protocol = dict(zip(e7.column("protocol"), e7.column("max_decision_delta")))
    if any(lag is None for lag in by_protocol.values()):
        failures.append("E7: undecided protocol")
    else:
        _shape(failures, "E7", all(lag < bound and lag <= 10.0 for lag in by_protocol.values()),
               "stable-case decision above a few delta")
        _shape(failures, "E7", by_protocol.get("modified-paxos", 99.0) <= 6.0,
               "Modified Paxos cold start above 6 delta")

    # E8: modified protocols flat and bounded, baselines grow with N.
    rows: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for row in tables["E8"].rows:
        rows[row["protocol"]][row["n"]] = row
    ns = sorted(rows["modified-paxos"])
    for protocol, factor in (("modified-paxos", 1.0), ("modified-b-consensus", 2.0)):
        lags = [rows[protocol][n]["chaos_lag_delta"] for n in ns]
        _shape(failures, "E8", all(lag is not None and lag <= factor * bound for lag in lags),
               f"{protocol} chaos lag above {factor:g}x the bound")
    trad = [rows["traditional-paxos"][n]["adversarial_lag_delta"] for n in ns]
    rot = [rows["rotating-coordinator"][n]["adversarial_lag_delta"] for n in ns]
    modified_largest = rows["modified-paxos"][ns[-1]]["chaos_lag_delta"]
    if None in trad or None in rot or modified_largest is None:
        failures.append("E8: undecided baseline")
    else:
        _shape(failures, "E8", trad[-1] > trad[0] and rot[-1] > rot[0],
               "baselines do not grow with N")
        _shape(failures, "E8", trad[-1] > modified_largest and rot[-1] > modified_largest,
               "baselines not slower than Modified Paxos at the largest N")

    # E9: leader-submitted <= 3 delta, follower-submitted <= 4 delta, chaos <= 2x bound.
    leader, follower, chaos = (row["worst_global_latency_delta"] for row in tables["E9"].rows)
    _shape(failures, "E9", leader is not None and leader <= 3.0, "leader-submitted above 3 delta")
    _shape(failures, "E9", follower is not None and follower <= 4.0,
           "follower-submitted above 4 delta")
    _shape(failures, "E9", chaos is not None and chaos <= 2.0 * bound,
           "pre-TS commands above 2x the bound")
    return failures


def check_smr_outcome(outcome, commands: Mapping[str, object]) -> List[str]:
    """Every command learned everywhere; every replica holds the expected state.

    ``commands`` maps each scheduled command id to the command the benchmark
    submitted.  The expected state applies them in the slots the replicas
    learned them in, so a replica that applied a different command, or
    none, disagrees with it.
    """
    failures = [f"command {command_id} not learned by every replica"
                for command_id in outcome.unlearned_command_ids()]
    if set(outcome.commands) != set(commands):
        failures.append("learned command ids differ from the scheduled ones")
        return failures
    slots = [outcome.commands[command_id].slot for command_id in commands]
    if None in slots or len(set(slots)) != len(slots):
        failures.append("commands do not occupy distinct slots")
        return failures
    machine = KeyValueStore()
    for _, command_id in sorted(zip(slots, commands)):
        machine.apply(commands[command_id])
    expected = digest_string(machine.digest())
    for pid, digest in sorted(outcome.digests.items()):
        if digest != expected:
            failures.append(f"replica p{pid} digest {digest} != expected {expected}")
    return failures
