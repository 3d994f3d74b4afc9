"""Benchmark of the reproduction's real workloads, end to end and per layer.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``campaign`` — the full-scale E1-E9 campaign into a fresh JsonlStore;
* ``smr-stream`` — one 100-command SMR run at n = 9;
* ``campaign-resume`` — all nine tables re-rendered from a stored campaign.

``--seed`` is the workload seed: every experiment seed is shifted by
``1000 * seed``; seed 0 (the default) reproduces ``campaign_plan("full")``
exactly and is the only seed on which the tables are compared with their
reference digests.  Seed 7 is held out: a performance claim must also hold
on it.

With ``--trace 0`` the workload runs passes, one after another, until the
next pass would end after ``--seconds``, and prints every end-to-end metric.
Host times are reported in reference seconds (see ``bench_meter.py``): the
machine's changing CPU speed, sampled in this thread while the workload
runs, is divided out.
With ``--trace 1`` it runs a fixed number of untraced and traced passes,
alternately (``--seconds`` is not used), prints every per-layer metric, per
traced pass, and writes the spans to ``.perfbench/spans-<workload>.{json,bin}``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any failed correctness check makes the exit code 1.

``--scale smoke`` runs a tiny version of every workload for the
benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from bench_meter import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 5
# Untraced/traced pass pairs of a traced run, alternated so that both sides
# of the tracing overhead see the same machine.
TRACE_PASSES = {"campaign": 1, "smr-stream": 2, "campaign-resume": 50}

# Run in a fresh interpreter: import of repro and registry construction,
# in reference seconds (the CPU speed is calibrated before and after).
IMPORT_PROBE = """
import time
from bench_meter import REFERENCE_S, calibrate
before = calibrate()
started = time.perf_counter()
import repro
import repro.harness.campaign
from repro.consensus.registry import default_registry
from repro.workloads.registry import default_workload_registry
default_registry()
default_workload_registry()
seconds = time.perf_counter() - started
print(seconds * REFERENCE_S / ((before + calibrate()) / 2))
"""


def percentile(values: List[float], q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_import_seconds() -> float:
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE))),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(completed.stdout.split()[-1])


def setup_seconds(workload, meter) -> float:
    """Median cold import and registry construction, plus median input build."""
    imports = [cold_import_seconds() for _ in range(SETUP_PROBES)]
    builds = []
    for _ in range(workload.build_repeats):
        started = time.perf_counter()
        workload.build()
        ended = time.perf_counter()
        builds.append(meter.scale(ended - started, started, ended))
    return statistics.median(imports) + statistics.median(builds)


def delta_figures(outcomes: List[Any]) -> tuple:
    """(modified-paxos post-TS lags, per-command latencies), in delta units.

    Runs with a restart after TS (E5) are left out of the lag: a process
    restarting at TS + 80 delta decides after that by design, and E5
    reports its recovery itself.
    """
    from repro.smr.outcome import SmrOutcome

    lags, commands = [], []
    for outcome in outcomes:
        if isinstance(outcome, SmrOutcome):
            commands += [record.global_latency / outcome.delta
                         for record in outcome.commands.values()
                         if record.global_latency is not None]
        elif outcome.protocol == "modified-paxos":
            lag = outcome.extra.get("max_lag_after_ts")
            restarted_after_ts = any(t > outcome.ts for t, _ in outcome.extra["restart_events"])
            if lag is not None and not restarted_after_ts:
                lags.append(lag / outcome.delta)
    # smr-stream runs no single-decree protocol: its lags are its commands'.
    return lags or commands, commands


def pass_seconds(meter, passes) -> List[float]:
    return [meter.scale(p.seconds, p.started, p.started + p.seconds) for p in passes]


def end_to_end_metrics(workload, passes, setup_s: float, meter) -> Dict[str, float]:
    seconds = pass_seconds(meter, passes)
    total = sum(seconds)
    lags, commands = delta_figures(workload.delta_outcomes(passes))
    op_samples = [meter.scale(end - start, start, end) / ops
                  for start, end, ops in workload.op_samples(passes)]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(seconds),
        "ops_per_s": sum(p.ops for p in passes) / total,
        "op_ms_p50": 1000.0 * percentile(op_samples, 0.5),
        "op_ms_p90": 1000.0 * percentile(op_samples, 0.9),
        "events_per_s": workload.events(passes) / total,
        "lag_p90_delta": percentile(lags, 0.9),
        "cmd_latency_p50_delta": percentile(commands, 0.5),
        "cmd_latency_p90_delta": percentile(commands, 0.9),
        "peak_rss_mb": peak_rss_mb(),
        # Shown to people, not part of the result: the median pass time
        # unscaled, how many samples the op_ms percentiles rest on, and the
        # worst lag (a maximum over ~50 runs moves too much with the seed to
        # gate on; lag_p90_delta is gated instead).
        "raw_wall_s": statistics.median(p.seconds for p in passes),
        "op_ms_samples": len(op_samples),
        "lag_max_delta": max(lags, default=0.0),
    }


def units(section: str) -> Dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` lists in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def timed_run(workload, seconds: float) -> tuple:
    with SpeedMeter() as meter:
        setup_s = setup_seconds(workload, meter)
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(workload.run_pass())
            # Stop when the next pass, as long as this one, would overrun.
            if time.perf_counter() - started + passes[-1].seconds > seconds:
                break
    metrics = end_to_end_metrics(workload, passes, setup_s, meter)
    return passes, metrics, units("end_to_end")


def traced_run(workload) -> tuple:
    from bench_trace import Tracer, layer_metrics

    workload.build()
    count = TRACE_PASSES[workload.name]
    tracer = Tracer()
    reference, traced = [], []
    with SpeedMeter() as meter:
        for _ in range(count):
            reference.append(workload.run_pass())
            tracer.install()
            try:
                traced.append(workload.run_pass(tracer))
            finally:
                tracer.uninstall()
    metrics = layer_metrics(tracer, traced)
    for index in range(1, 10):
        metrics[f"harness.e{index}_s"] = statistics.median(
            p.durations.get(f"E{index}", 0.0) for p in reference)
    metrics["tracing.overhead_ratio"] = (statistics.median(pass_seconds(meter, traced))
                                         / statistics.median(pass_seconds(meter, reference)))
    tracer.write(os.path.join(WORKDIR, f"spans-{workload.name}"))
    return reference + traced, metrics, units("per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "smr-stream", "campaign-resume"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0 = default)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds to measure for (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny workloads for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench_workloads import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.scale, args.seed, WORKDIR)
    try:
        if args.trace:
            passes, metrics, names = traced_run(workload)
        else:
            passes, metrics, names = timed_run(workload, args.seconds)
    finally:
        workload.finish()

    failures = workload.setup_failures + [f for p in passes for f in p.failures]
    attempted = sum(p.ops for p in passes)
    failed = min(attempted, len(workload.setup_failures) + sum(p.failed for p in passes))
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} scale={args.scale} passes={len(passes)}")
    for name, unit in names.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    for name in sorted(set(metrics) - set(names)):
        print(f"  {name:32s} {metrics[name]:14.6g} (not in the result)")
    print(f"  {'fail_ratio':32s} {failed / attempted:14.6g} ratio ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
