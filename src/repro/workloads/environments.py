"""Environment-driven scenarios: any :class:`~repro.env.spec.EnvironmentSpec` as a run.

:func:`environment_scenario` turns an environment — given directly, as a
plain dict, or as a registry name — into a runnable
:class:`~repro.workloads.scenario.Scenario`.  It is the path behind
``python -m repro run --env <name-or-json>`` and builds through the generic
``environment`` entry of :data:`repro.workloads.registry.WORKLOADS`.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from repro.env.registry import default_environment_registry
from repro.env.spec import EnvironmentSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.workloads.scenario import Scenario

__all__ = ["environment_scenario", "resolve_environment"]

EnvironmentLike = Union[EnvironmentSpec, Mapping[str, Any], str]


def resolve_environment(env: EnvironmentLike) -> EnvironmentSpec:
    """Coerce a spec, a plain dict, or a registry name into an EnvironmentSpec."""
    if isinstance(env, EnvironmentSpec):
        return env
    if isinstance(env, str):
        return default_environment_registry().environment(env)
    if isinstance(env, Mapping):
        return EnvironmentSpec.from_dict(env)
    raise ConfigurationError(
        f"cannot resolve environment from {type(env).__name__}; "
        "pass an EnvironmentSpec, a registry name, or a spec dict"
    )


def environment_scenario(
    env: EnvironmentLike,
    *,
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
) -> Scenario:
    """A runnable scenario from any environment spec.

    ``ts`` defaults to ``10δ`` and ``max_time`` to ``ts + 400δ``; the
    scenario is named ``<env-name>-n<n>``.
    """
    from repro.workloads.registry import default_workload_registry

    spec = default_workload_registry().get("environment")
    return spec.scenario(
        {"env": env, "n": n, "params": params, "ts": ts, "seed": seed, "max_time": max_time}
    )
