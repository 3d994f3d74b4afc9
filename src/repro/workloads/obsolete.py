"""Builder of the obsolete high-ballot workload (experiment E2, Section 2).

:func:`obsolete_ballots` is the computing part of the ``obsolete-ballots``
entry in :data:`repro.workloads.registry.WORKLOADS`. The scenario installs a
reachable pre-stabilization state for traditional Paxos in which ``k``
processes crashed before ``TS`` after announcing anomalously high ballots
(the paper's "messages with higher mbal fields that were sent by processes
that have since failed"). Those phase 1a messages are still in flight after
``TS`` and the adversary — which controls the delivery time of every message
sent before ``TS`` — releases them one at a time, each aimed at every
acceptor except the post-stabilization leader, and each timed to land just
after the leader has committed to a new ballot (right when its phase 2a goes
out). Every release therefore forces one more rejection/retry cycle on the
leader, which is exactly the ``O(Nδ)`` behaviour the paper describes.

Two details are worth calling out:

* **Reachability.**  Traditional Paxos lets a self-believed leader "increase
  mbal[p] to an arbitrary value congruent to p mod N"; before ``TS`` the
  crashed processes believed themselves leaders (the Ω oracle may answer
  arbitrarily before stabilization) and chose those ballots, so the injected
  messages correspond to a legal pre-``TS`` history.
* **Adaptivity.**  The release times depend on the execution (the adversary
  watches the leader and releases the next obsolete ballot when the current
  attempt reaches phase 2).  This is allowed: the model places *no*
  constraint on when a pre-``TS`` message is delivered, so a worst-case
  adversary may schedule deliveries with full knowledge of the run.  When
  the protocol under test is not traditional Paxos (no proposer state to
  watch), the controller falls back to a fixed release schedule.  Both
  paths record every release as a ``("net", "obsolete_release")`` trace
  event.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.messages import Phase1a
from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator

__all__ = ["obsolete_ballots"]


class _ObsoleteReleaseController:
    """Adaptive adversary releasing one obsolete ballot per leader attempt."""

    def __init__(
        self,
        simulator: Simulator,
        leader: int,
        owners: List[int],
        count: int,
        ballot_stride: int,
        poll_interval: float,
        arrival_lead: float,
        fallback_gap: float,
    ) -> None:
        self.simulator = simulator
        self.leader = leader
        self.owners = owners
        self.count = count
        self.ballot_stride = ballot_stride
        self.poll_interval = poll_interval
        self.arrival_lead = arrival_lead
        self.fallback_gap = fallback_gap
        self.released = 0
        self.last_ruined_ballot = -1

    def install(self) -> None:
        start = self.simulator.config.ts + 0.5 * self.poll_interval
        self.simulator.schedule_at(start, self._poll, label="obsolete-adversary")

    # -- internals ---------------------------------------------------------------
    def _poll(self) -> None:
        if self.released >= self.count or self.simulator.has_decided(self.leader):
            return
        attempt = self._leader_attempt()
        if attempt is None:
            # Not traditional Paxos: degrade to a fixed-schedule release.
            self._release_all_on_schedule()
            return
        if attempt.phase2a_sent and attempt.ballot > self.last_ruined_ballot:
            self._release(above_ballot=attempt.ballot)
            self.last_ruined_ballot = attempt.ballot
        self.simulator.schedule_in(self.poll_interval, self._poll, label="obsolete-adversary")

    def _leader_attempt(self):
        node = self.simulator.nodes[self.leader]
        proposer = getattr(node.process, "proposer", None)
        return getattr(proposer, "attempt", None)

    def _release(self, above_ballot: int) -> None:
        n = self.simulator.config.n
        index = self.released
        owner = self.owners[index % len(self.owners)]
        floor = max(above_ballot, (index + 1) * self.ballot_stride * n)
        ballot = ((floor // n) + 1) * n + owner
        self._inject(owner, ballot, self.simulator.now() + self.arrival_lead, index)

    def _release_all_on_schedule(self) -> None:
        n = self.simulator.config.n
        while self.released < self.count:
            index = self.released
            owner = self.owners[index % len(self.owners)]
            ballot = ((index + 1) * self.ballot_stride + 1) * n + owner
            delay = index * self.fallback_gap + self.arrival_lead
            self._inject(owner, ballot, self.simulator.now() + delay, index)

    def _inject(self, owner: int, ballot: int, deliver_time: float, index: int) -> None:
        """Send ``owner``'s obsolete phase 1a to every acceptor but the leader."""
        simulator = self.simulator
        message = Phase1a(mbal=ballot)
        for dst in range(simulator.config.n):
            if dst == self.leader or dst == owner:
                continue
            simulator.network.inject(
                message, src=owner, dst=dst, deliver_time=deliver_time, send_time=0.0
            )
        simulator.trace.record(
            simulator.now(), "net", "obsolete_release", pid=owner, ballot=ballot, index=index
        )
        self.released += 1


def obsolete_ballots(fields: Dict[str, Any]) -> Dict[str, Any]:
    """Builder of the ``obsolete-ballots`` workload.

    The highest-id minority crashes at ``TS/4`` and never restarts; its
    ``num_obsolete`` (``k``, default ``⌈N/2⌉ − 1``) obsolete phase 1a
    messages surface after ``TS``.  ``ballot_stride`` sets how far apart the
    crafted ballots are and must comfortably exceed anything the leader can
    reach between releases; ``poll_interval_factor`` is how often (in ``δ``)
    the adaptive adversary checks the leader's progress.
    """
    n, ts, delta = fields["n"], fields["ts"], fields["delta"]
    max_victims = n - (n // 2 + 1)
    victims = list(range(n - max_victims, n))
    k = fields["num_obsolete"] if fields["num_obsolete"] is not None else max_victims
    if not 0 <= k <= max_victims:
        raise ConfigurationError(
            f"num_obsolete must be in [0, {max_victims}] to keep a majority alive, got {k}"
        )
    ballot_stride = fields["ballot_stride"]
    if ballot_stride < n:
        raise ConfigurationError("ballot_stride must be at least n")
    poll_interval_factor = fields["poll_interval_factor"]
    if poll_interval_factor <= 0:
        # A zero interval would re-poll forever without advancing time.
        raise ConfigurationError(
            f"poll_interval_factor must be positive, got {poll_interval_factor}"
        )
    survivors = [pid for pid in range(n) if pid not in victims]
    leader = min(survivors)

    def post_setup(simulator: Simulator) -> None:
        _ObsoleteReleaseController(
            simulator=simulator,
            leader=leader,
            owners=victims,
            count=k,
            ballot_stride=ballot_stride,
            poll_interval=poll_interval_factor * delta,
            arrival_lead=0.02 * delta,
            fallback_gap=3.0 * delta,
        ).install()

    return {
        "k": k,
        "leader": leader,
        "expected_deciders": survivors,
        "post_setup": post_setup,
        "environment": EnvironmentSpec(
            name="obsolete-ballots",
            adversary=AdversarySpec("drop-all"),
            faults=(
                FaultSpec("crash-forever", {"pids": list(victims), "time": 0.25 * ts})
                if victims
                else FaultSpec("none")
            ),
        ),
    }
