"""The workload table: every named workload as one declarative entry.

A workload is a :class:`WorkloadSpec` in :data:`WORKLOADS`.  An entry names
an environment from :mod:`repro.env.registry` and the keyword arguments it
forwards to it (their defaults come from that environment), the default
stabilization time and horizon in units of ``δ``, templates for the
scenario name and notes, and the help text of its parameters.  A workload
that has to compute something — which processes crash, which events fire,
an adaptive adversary — references a small builder instead of a named
environment.  Adding a workload means adding one entry.

The ``smr-*`` entries reuse their base entry with per-entry overrides (a
longer horizon, fewer knobs, other defaults); their ``smr`` flag is what
routes them to :func:`~repro.smr.runner.run_smr` instead of a single-decree
protocol.

The CLI, the experiment grids and the examples all resolve workloads by
name through a :class:`ScenarioRegistry`, which validates keyword arguments
against each entry's parameter list.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.env.registry import ENVIRONMENTS, environment
from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig
from repro.workloads.obsolete import obsolete_ballots
from repro.workloads.scenario import Scenario

__all__ = [
    "SMR_WORKLOADS",
    "ScenarioRegistry",
    "WORKLOADS",
    "WorkloadParameter",
    "WorkloadSpec",
    "default_workload_registry",
    "environment_scenario",
    "is_smr_workload",
]

Fields = Dict[str, Any]
Builder = Callable[[Fields], Fields]

REQUIRED = object()  # marks a workload parameter without a default


@dataclass(frozen=True)
class WorkloadParameter:
    """One keyword parameter a workload accepts."""

    name: str
    default: Any = None
    required: bool = False
    help: str = ""

    def describe(self) -> str:
        if self.required:
            text = f"{self.name} (required)"
        else:
            text = f"{self.name}={self.default!r}"
        if self.help:
            text += f"  {self.help}"
        return text


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload, as data.

    Building a scenario resolves the keyword arguments into *fields*: every
    parameter (defaulted), plus ``params``, ``delta`` and ``ts`` resolved
    against the timing constants.  The named environment is built from the
    ``env_params`` fields, then ``build`` may add fields of its own —
    ``environment``, ``expected_deciders`` and ``post_setup`` feed the
    scenario, anything else feeds the templates and the horizon.

    Attributes:
        name: Registry name (``repro run --workload <name>``).
        summary: One line for ``repro list-workloads``.
        scenario_name: ``str.format`` template over the fields; the result
            seeds the network's RNG fork, so it must stay stable.
        environment: Key of :data:`~repro.env.registry.ENVIRONMENTS`, or
            None when ``build`` supplies the environment.
        env_params: Parameters forwarded to the environment, in listing
            order; their defaults are the environment factory's.
        params: The workload's own parameters with their defaults
            (:data:`REQUIRED` for none).
        defaults: Overrides of environment defaults.
        ts: Default stabilization time in ``δ``; None means synchronous
            from ``t = 0`` with no ``ts`` parameter.
        horizon: ``H`` in the default horizon ``ts + H·δ``: a number, or a
            function of the fields.
        notes: Template for the scenario notes; None uses the environment's.
        help: Help text per parameter name.
        min_n: Smallest accepted process count.
        build: Computes the fields a table entry cannot state.
        smr: Run by the SMR runner rather than a single-decree protocol.
    """

    name: str
    summary: str
    scenario_name: str
    environment: Optional[str] = None
    env_params: Tuple[str, ...] = ()
    params: Tuple[Tuple[str, Any], ...] = ()
    defaults: Mapping[str, Any] = field(default_factory=dict)
    ts: Optional[float] = 10.0
    horizon: Union[float, Callable[[Fields], float]] = 400.0
    notes: Optional[str] = None
    help: Mapping[str, str] = field(default_factory=dict)
    min_n: int = 1
    build: Optional[Builder] = None
    smr: bool = False

    @cached_property
    def parameters(self) -> Tuple[WorkloadParameter, ...]:
        """Listing order: n, required knobs, params, ts, seed, knobs, max_time."""
        defaults = {"params": None, "ts": None, "seed": 0, "max_time": None, **dict(self.params)}
        if self.environment is not None:
            factory, _ = ENVIRONMENTS[self.environment]
            signature = inspect.signature(factory).parameters
            defaults.update((key, signature[key].default) for key in self.env_params)
        defaults.update(self.defaults)
        knobs = [*self.env_params, *(key for key, _ in self.params)]
        required = ["n"] + [key for key in knobs if defaults[key] is REQUIRED]
        common = ["params", "ts", "seed"] if self.ts is not None else ["params", "seed"]
        optional = common + [key for key in knobs if key not in required] + ["max_time"]
        return tuple(
            WorkloadParameter(key, required=True, help=self.help.get(key, ""))
            for key in required
        ) + tuple(
            WorkloadParameter(key, default=defaults[key], help=self.help.get(key, ""))
            for key in optional
        )

    def parameter_names(self) -> List[str]:
        return [parameter.name for parameter in self.parameters]

    def accepts(self, name: str) -> bool:
        return any(parameter.name == name for parameter in self.parameters)

    def describe(self) -> str:
        lines = [f"{self.name}: {self.summary}" if self.summary else self.name]
        for parameter in self.parameters:
            lines.append(f"  {parameter.describe()}")
        return "\n".join(lines)

    def scenario(self, kwargs: Mapping[str, Any]) -> Scenario:
        """Build the scenario from already-validated keyword arguments."""
        fields = {p.name: kwargs.get(p.name, p.default) for p in self.parameters}
        n = fields["n"]
        if n < self.min_n:
            raise ConfigurationError(f"workload {self.name!r} needs n >= {self.min_n}")
        params = fields["params"] if fields["params"] is not None else TimingParams()
        delta = params.delta
        fields.update(params=params, delta=delta)
        if fields.get("ts") is None:
            fields["ts"] = 0.0 if self.ts is None else self.ts * delta
        if "with_crashes" in fields:
            # Below three processes a majority is everyone, so none may crash.
            fields["with_crashes"] = fields["with_crashes"] and n >= 3
        if self.environment is not None:
            fields["environment"] = environment(
                self.environment, **{key: fields[key] for key in self.env_params}
            )
        if self.build is not None:
            fields.update(self.build(fields))
        horizon = self.horizon(fields) if callable(self.horizon) else self.horizon
        ts = fields["ts"]
        max_time = fields["max_time"] if fields["max_time"] is not None else ts + horizon * delta
        env = fields["environment"]
        return Scenario(
            name=self.scenario_name.format_map(fields),
            config=SimulationConfig(n=n, params=params, ts=ts, seed=fields["seed"],
                                    max_time=max_time),
            environment=env,
            initial_values=fields.get("initial_values"),
            post_setup=fields.get("post_setup"),
            expected_deciders=fields.get("expected_deciders"),
            notes=env.notes if self.notes is None else self.notes.format_map(fields),
        )


class ScenarioRegistry:
    """Name → workload-spec mapping with schema-validated construction."""

    def __init__(self) -> None:
        self._specs: Dict[str, WorkloadSpec] = {}

    def register(self, spec: WorkloadSpec) -> None:
        if spec.name in self._specs:
            raise ConfigurationError(f"workload {spec.name!r} registered twice")
        self._specs[spec.name] = spec

    def names(self) -> List[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def get(self, name: str) -> WorkloadSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise ConfigurationError(
                f"unknown workload {name!r}; available: {', '.join(self.names())}"
            )
        return spec

    def create(self, name: str, **kwargs: Any) -> Scenario:
        """Build the scenario registered under ``name``, validating kwargs."""
        spec = self.get(name)
        accepted = set(spec.parameter_names())
        for key in kwargs:
            if key not in accepted:
                raise ConfigurationError(
                    f"workload {name!r} does not accept parameter {key!r}; "
                    f"accepted: {', '.join(sorted(accepted))}"
                )
        missing = [
            parameter.name
            for parameter in spec.parameters
            if parameter.required and parameter.name not in kwargs
        ]
        if missing:
            raise ConfigurationError(
                f"workload {name!r} requires parameters: {', '.join(missing)}"
            )
        return spec.scenario(kwargs)


# ---------------------------------------------------------------------------
# Builders: the parts of a workload that compute rather than declare.
# ---------------------------------------------------------------------------


def _max_faulty(n: int) -> int:
    return n - (n // 2 + 1)


def _post_ts_delays(fields: Fields) -> Fields:
    worst = fields.get("worst_case_post_delays", False)
    return {
        "suffix": "-worstdelay" if worst else "",
        "post_ts": "every delivery takes the full delta" if worst else "synchronous",
    }


def _check_hub(fields: Fields) -> Fields:
    n, hub = fields["n"], fields["hub"]
    if not 0 <= hub < n:
        raise ConfigurationError(f"hub must be a pid in [0, {n}), got {hub}")
    return {}


def _named_environment(fields: Fields) -> Fields:
    """Resolve ``env``: an EnvironmentSpec, a spec dict, or an environment name."""
    spec = fields["env"]
    if isinstance(spec, str):
        spec = environment(spec)
    elif isinstance(spec, Mapping):
        spec = EnvironmentSpec.from_dict(spec)
    elif not isinstance(spec, EnvironmentSpec):
        raise ConfigurationError(
            f"cannot resolve environment from {type(spec).__name__}; "
            "pass an EnvironmentSpec, an environment name, or a spec dict"
        )
    spec.validate()
    return {"environment": spec, "label": spec.name or "environment"}


def _crashed_coordinators(fields: Fields) -> Fields:
    """Crash the coordinators of rounds ``0 .. f−1`` early, never restarted."""
    n, ts = fields["n"], fields["ts"]
    max_faulty = _max_faulty(n)
    f = fields["num_faulty"] if fields["num_faulty"] is not None else max_faulty
    if not 0 <= f <= max_faulty:
        raise ConfigurationError(
            f"num_faulty must be in [0, {max_faulty}] to keep a majority alive, got {f}"
        )
    faults = (
        FaultSpec("crash-forever", {"pids": list(range(f)), "time": 0.25 * ts})
        if f > 0
        else FaultSpec("none")
    )
    return {
        "f": f,
        "last_round": f - 1,
        "expected_deciders": list(range(f, n)),
        "environment": EnvironmentSpec(
            name="coordinator-crash", adversary=AdversarySpec("drop-all"), faults=faults
        ),
    }


def _restart_victims(fields: Fields) -> Fields:
    """The highest pids crash at ``TS/4`` and restart at ``TS + offset·δ``."""
    n, ts, delta = fields["n"], fields["ts"], fields["delta"]
    requested = fields["restart_offsets"]
    offsets = list(requested) if requested is not None else [5.0, 20.0, 40.0]
    offsets = offsets[:_max_faulty(n)]
    if not offsets:
        raise ConfigurationError("need at least one restart offset (n too small?)")
    victims = list(range(n - len(offsets), n))
    events = []
    for victim, offset in zip(victims, offsets):
        events.append({"time": 0.25 * ts, "pid": victim, "kind": "crash"})
        events.append({"time": ts + offset * delta, "pid": victim, "kind": "restart"})
    return {
        "offsets": offsets,
        "victim_list": ", ".join(f"p{pid}" for pid in victims),
        "offset_list": ", ".join(f"{offset:g}δ" for offset in offsets),
        "environment": EnvironmentSpec(
            name="restarts",
            adversary=AdversarySpec("partition", {"partition": {"mode": "minority"}}),
            faults=FaultSpec("explicit", {"events": events}),
        ),
    }


def _kitchen_sink(fields: Fields) -> Fields:
    """Staggered crashes of a maximal minority: one restarts before TS, one late."""
    n, ts, delta = fields["n"], fields["ts"], fields["delta"]
    victims = list(range(n - _max_faulty(n), n))
    events = []
    for index, victim in enumerate(victims):
        events.append({"time": 0.2 * ts + 0.05 * index * ts, "pid": victim, "kind": "crash"})
        if index == 0:
            events.append({"time": 0.8 * ts, "pid": victim, "kind": "restart"})
        elif index == 1:
            restart = ts + fields["late_restart_offset"] * delta
            events.append({"time": restart, "pid": victim, "kind": "restart"})
        # Any further victims stay down forever (a majority remains up).
    adversary = AdversarySpec(
        "worst-case-delay",
        inner=AdversarySpec(
            "deferring-partition",
            {
                "defer_probability": fields["defer_probability"],
                "max_defer_delta": 3.0,
                "duplicate_prob": fields["duplicate_prob"],
            },
            inner=AdversarySpec("partition", {"partition": {"mode": "minority"}}),
        ),
    )
    return {
        "environment": EnvironmentSpec(
            name="kitchen-sink", adversary=adversary,
            faults=FaultSpec("explicit", {"events": events}),
        )
    }


# ---------------------------------------------------------------------------
# The table.
# ---------------------------------------------------------------------------

_CHAOS_TS_HELP = "stabilization time (defaults to 10 delta)"
_LEAK_HELP = "chance a cross-partition message leaks with a long delay"
_SLOW_FACTOR_HELP = "pre-TS delays on slow links go up to slow_factor * delta"
_HEAL_START_HELP = "fraction of ts at which the partition starts healing"
_END_DROP_HELP = "cross-group drop probability remaining at TS"
_WAVES_HELP = "restart cycles per victim after TS"

_STABLE = WorkloadSpec(
    name="stable",
    summary="synchronous from t=0, no faults: the failure-free fast path (E7)",
    scenario_name="stable-n{n}",
    environment="stable",
    params=(("initial_values", None),),
    ts=None,
    horizon=200.0,
    notes="synchronous from t=0, no faults: failure-free fast path",
    help={"n": "number of processes", "max_time": "simulation horizon (defaults to 200 delta)"},
)

_PARTITIONED_CHAOS = WorkloadSpec(
    name="partitioned-chaos",
    summary="minority partitions plus crashes/restarts before TS (E1, E4, E6, E8)",
    scenario_name="partitioned-chaos-n{n}{suffix}",
    environment="partitioned-chaos",
    env_params=("with_crashes", "leak_probability", "worst_case_post_delays"),
    notes=(
        "pre-TS: minority partitions (no quorum can form), occasional leaked messages with "
        "long delays, crashes and some restarts; post-TS: {post_ts}"
    ),
    build=_post_ts_delays,
    help={
        "n": "number of processes",
        "ts": _CHAOS_TS_HELP,
        "leak_probability": _LEAK_HELP,
        "worst_case_post_delays": "post-TS deliveries take (almost) the full delta",
    },
)

_ASYMMETRIC_LINK = WorkloadSpec(
    name="asymmetric-link",
    summary="slow links to/from the post-TS coordinator; every other link prompt",
    scenario_name="asymmetric-link-n{n}-hub{hub}",
    environment="asymmetric-link",
    env_params=("hub", "direction", "slow_factor", "slow_post_ts"),
    ts=5.0,
    build=_check_hub,
    help={
        "n": "number of processes",
        "hub": "process whose links are slow (default 0, the lowest-id coordinator)",
        "direction": "'to', 'from', or 'both' hub-adjacent directions",
        "slow_factor": _SLOW_FACTOR_HELP,
    },
)

_GRAY_PARTITION = WorkloadSpec(
    name="gray-partition",
    summary="a minority partition that heals gradually before TS",
    scenario_name="gray-partition-n{n}",
    environment="gray-partition",
    env_params=("heal_start", "end_drop", "with_crashes"),
    help={
        "n": "number of processes",
        "heal_start": _HEAL_START_HELP,
        "end_drop": _END_DROP_HELP,
        "with_crashes": "also crash (and recover) a random minority before TS",
    },
)

_CHURN = WorkloadSpec(
    name="churn",
    summary="repeated post-TS crash/restart waves over a minority (majority stays up)",
    scenario_name="churn-n{n}-w{waves}",
    environment="churn",
    env_params=("waves", "up_time", "down_time", "first_offset", "num_victims"),
    horizon=lambda fields: (
        fields["first_offset"] + fields["waves"] * (fields["up_time"] + fields["down_time"]) + 100.0
    ),
    min_n=3,
    help={
        "n": "number of processes (at least 3)",
        "waves": _WAVES_HELP,
        "up_time": "delta units a churning victim stays up per wave",
        "down_time": "delta units a churning victim stays down per wave",
        "num_victims": "how many processes churn (defaults to the largest minority)",
    },
)

WORKLOADS: Tuple[WorkloadSpec, ...] = (
    _STABLE,
    _PARTITIONED_CHAOS,
    WorkloadSpec(
        name="lossy-chaos",
        summary="independent random loss/delay/deferral/duplication before TS",
        scenario_name="lossy-chaos-n{n}",
        environment="lossy-chaos",
        env_params=("drop_probability", "defer_probability", "with_crashes"),
        notes=(
            "pre-TS: random loss/delay/deferral/duplication, crashes and some restarts; "
            "post-TS: synchronous"
        ),
        help={
            "n": "number of processes",
            "ts": _CHAOS_TS_HELP,
            "drop_probability": "chance a pre-TS message is dropped outright",
        },
    ),
    WorkloadSpec(
        name="environment",
        summary="generic: run any named or inline EnvironmentSpec",
        scenario_name="{label}-n{n}",
        params=(("env", REQUIRED),),
        build=_named_environment,
        help={
            "n": "number of processes",
            "env": "environment name (see `repro list-environments`) or a spec dict",
            "ts": _CHAOS_TS_HELP,
        },
    ),
    _ASYMMETRIC_LINK,
    _GRAY_PARTITION,
    _CHURN,
    WorkloadSpec(
        name="coordinator-crash",
        summary="the first num_faulty round coordinators crash before TS and stay down (E3)",
        scenario_name="coordinator-crash-n{n}-f{f}",
        params=(("num_faulty", None),),
        ts=5.0,
        horizon=lambda fields: 8.0 * fields["f"] + 80.0,
        notes="coordinators of rounds 0..{last_round} crashed before TS; "
        "pre-TS messages all lost",
        min_n=3,
        build=_crashed_coordinators,
        help={
            "n": "number of processes",
            "num_faulty": "how many leading coordinators crash (defaults to the model maximum)",
        },
    ),
    WorkloadSpec(
        name="obsolete-ballots",
        summary="obsolete high-ballot phase-1a messages from crashed processes surface "
        "after TS (E2)",
        scenario_name="obsolete-ballots-n{n}-k{k}",
        params=(("num_obsolete", None), ("ballot_stride", 1_000),
                ("poll_interval_factor", 0.05)),
        ts=5.0,
        # Generous horizon: the whole point is that the decision takes O(k·δ).
        horizon=lambda fields: 6.0 * fields["k"] + 80.0,
        notes=(
            "{k} obsolete phase-1a messages with anomalously high ballots from crashed "
            "processes surface after TS, one per ballot attempt of the post-TS leader "
            "p{leader}"
        ),
        min_n=3,
        build=obsolete_ballots,
        help={
            "n": "number of processes (at least 3)",
            "num_obsolete": "obsolete ballots released after TS (defaults to ceil(N/2) - 1)",
        },
    ),
    WorkloadSpec(
        name="restarts",
        summary="a minority crashes before TS and restarts at TS + offset (E5)",
        scenario_name="restart-after-ts-n{n}",
        params=(("restart_offsets", None),),
        horizon=lambda fields: max(fields["offsets"]) + 100.0,
        notes="processes {victim_list} crash before TS and restart at TS + {offset_list}",
        min_n=3,
        build=_restart_victims,
        help={
            "n": "number of processes (at least 3)",
            "restart_offsets": "offsets after TS (in delta units) at which victims restart",
        },
    ),
    WorkloadSpec(
        name="kitchen-sink",
        summary="every adversity the model allows at once: partitions, deferral, "
        "duplication, crashes, late restarts, worst-case post-TS delays",
        scenario_name="kitchen-sink-n{n}",
        params=(("defer_probability", 0.25), ("duplicate_prob", 0.1),
                ("late_restart_offset", 12.0)),
        horizon=lambda fields: fields["late_restart_offset"] + 200.0,
        notes=(
            "pre-TS: minority partitions, cross-partition messages lost or deferred past TS, "
            "duplication, crashes with one pre-TS restart; post-TS: full-delta deliveries and "
            "one late restart"
        ),
        min_n=3,
        build=_kitchen_sink,
        help={
            "n": "number of processes (at least 3)",
            "late_restart_offset": "when (after TS, in delta units) the late victim restarts",
        },
    ),
    # SMR entries keep their base's scenario name: it seeds the network RNG.
    replace(
        _STABLE,
        name="smr-stable",
        summary="SMR: synchronous from t=0, no faults — the phase-1-pre-executed fast path (E9)",
        params=(),
        horizon=400.0,
        help={
            "n": "number of replicas",
            "max_time": "simulation horizon (defaults to 400 delta, room for long command "
            "streams)",
        },
        smr=True,
    ),
    replace(
        _PARTITIONED_CHAOS,
        name="smr-chaos",
        summary="SMR: minority partitions and crashes before TS, commands replicated after (E9)",
        env_params=("with_crashes", "leak_probability"),
        help={"n": "number of replicas", "ts": _CHAOS_TS_HELP, "leak_probability": _LEAK_HELP},
        smr=True,
    ),
    replace(
        _CHURN,
        name="smr-churn",
        summary="SMR: post-TS crash/restart waves over a minority while commands flow",
        defaults={"waves": 2},
        help={
            "n": "number of replicas (at least 3)",
            "waves": _WAVES_HELP,
            "num_victims": "how many replicas churn (defaults to the largest minority)",
        },
        smr=True,
    ),
    replace(
        _GRAY_PARTITION,
        name="smr-gray-partition",
        summary="SMR: a minority partition healing gradually before TS under commands",
        help={"n": "number of replicas", "heal_start": _HEAL_START_HELP,
              "end_drop": _END_DROP_HELP},
        smr=True,
    ),
    replace(
        _ASYMMETRIC_LINK,
        name="smr-asymmetric-link",
        summary="SMR: slow links around the serving leader; follower submissions feel the hub",
        help={"n": "number of replicas", "hub": "replica whose links are slow (default 0)",
              "slow_factor": _SLOW_FACTOR_HELP},
        smr=True,
    ),
)

SMR_WORKLOADS: Tuple[str, ...] = tuple(spec.name for spec in WORKLOADS if spec.smr)


def is_smr_workload(name: str) -> bool:
    """Whether ``name`` is a workload meant for the SMR runner."""
    return name in SMR_WORKLOADS


def default_workload_registry() -> ScenarioRegistry:
    """Registry holding every workload in :data:`WORKLOADS`."""
    registry = ScenarioRegistry()
    for spec in WORKLOADS:
        registry.register(spec)
    return registry


def environment_scenario(
    env: Union[EnvironmentSpec, Mapping[str, Any], str], *, n: int, **kwargs: Any
) -> Scenario:
    """The ``environment`` workload over ``env`` (a spec, a spec dict, or a name).

    The other keyword arguments are the workload's: ``params``, ``ts``
    (default ``10δ``), ``seed`` and ``max_time`` (default ``ts + 400δ``).
    The scenario is named ``<env-name>-n<n>``.
    """
    return default_workload_registry().create("environment", env=env, n=n, **kwargs)
