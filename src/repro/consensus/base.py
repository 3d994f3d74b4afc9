"""Shared machinery for consensus protocol implementations.

:class:`ConsensusProcess` adds to the bare kernel process the few things all
four protocols in this repository need: a persisted decision, guarded
"decide once" semantics, convenience accessors for timing constants, and
small persistence helpers.  :class:`ProtocolBuilder` is the uniform way the
harness constructs protocol instances — it exists because some protocols
(traditional Paxos, the rotating-coordinator baseline) need oracles that can
only be built once the simulator exists.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Optional

from repro.errors import ProtocolError
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

__all__ = ["ConsensusProcess", "ProtocolBuilder"]

_DECISION_KEY = "consensus:decided_value"


class ConsensusProcess(Process):
    """Base class for the consensus protocols in this repository."""

    def __init__(self) -> None:
        super().__init__()
        self._decided_value: Optional[Any] = None
        self._has_decided = False

    # -- timing shorthand --------------------------------------------------
    @property
    def delta(self) -> float:
        return self.ctx.params.delta

    @property
    def epsilon(self) -> float:
        return self.ctx.params.epsilon

    @property
    def rho(self) -> float:
        return self.ctx.params.rho

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def pid(self) -> int:
        return self.ctx.pid

    @property
    def quorum(self) -> int:
        return self.ctx.majority

    # -- decision handling -----------------------------------------------------
    @property
    def has_decided(self) -> bool:
        return self._has_decided

    @property
    def decided_value(self) -> Optional[Any]:
        return self._decided_value

    def decide_once(self, value: Any) -> None:
        """Decide ``value``, persist it, and refuse to ever change it.

        Re-deciding the *same* value (e.g. when a late quorum forms again or
        after a restart replays the stored decision) is a harmless no-op at
        the protocol level; the decision is still reported to the kernel so
        traces show it.
        """
        if self._has_decided and self._decided_value != value:
            raise ProtocolError(
                f"p{self.pid} attempted to change its decision from "
                f"{self._decided_value!r} to {value!r}"
            )
        first_time = not self._has_decided
        self._has_decided = True
        self._decided_value = value
        if first_time:
            self.ctx.storage.put(_DECISION_KEY, value)
            self.ctx.decide(value)

    def recover_decision(self) -> bool:
        """Re-adopt a decision persisted by a previous incarnation.

        Returns True if a stored decision was found (and re-announced).
        """
        stored = self.ctx.storage.get(_DECISION_KEY)
        if stored is None:
            return False
        self._has_decided = True
        self._decided_value = stored
        self.ctx.decide(stored)
        return True

    # -- persistence helpers ------------------------------------------------------
    def persist(self, **values: Any) -> None:
        """Durably store the given protocol fields (one logical write)."""
        self.ctx.storage.update({f"proto:{key}": value for key, value in values.items()})

    def recall(self, key: str, default: Any = None) -> Any:
        """Read a protocol field persisted by :meth:`persist`."""
        return self.ctx.storage.get(f"proto:{key}", default)

    def recall_prefixed(self, prefix: str) -> Dict[str, Any]:
        """Every persisted protocol field whose key starts with ``prefix``, by key suffix."""
        storage = self.ctx.storage
        full = f"proto:{prefix}"
        return {key[len(full):]: storage.get(key) for key in storage if key.startswith(full)}


class ProtocolBuilder(abc.ABC):
    """Constructs protocol processes for the harness.

    Lifecycle: the runner instantiates the builder, passes ``builder.create``
    as the simulator's process factory, constructs the simulator, and then
    calls :meth:`attach` so the builder can grab simulator-scoped resources
    (oracles, extra scheduled events) before any process starts.
    """

    name: ClassVar[str] = "protocol"

    def __init__(self) -> None:
        self.simulator: Optional["Simulator"] = None

    def attach(self, simulator: "Simulator") -> None:
        """Bind the builder to the simulator it will populate."""
        self.simulator = simulator

    @abc.abstractmethod
    def create(self, pid: int) -> Process:
        """Build a fresh protocol instance for process ``pid``."""

    def invariant_checks(self) -> Dict[str, Any]:
        """Protocol-specific trace invariants the harness should run.

        Maps a human-readable name to a callable ``check(trace, n)`` raising
        :class:`repro.errors.InvariantViolation` on failure.
        """
        return {}
