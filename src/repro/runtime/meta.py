"""Meta-operator actor: one actor executing a fused sub-graph.

Implements the paper's Algorithm 4: each input message is processed by
the front-end operator's function; results headed to operators inside
the fused sub-graph are processed in place (sequential composition of
the functions along the item's path), and results headed outside are
sent to the corresponding actor's mailbox.  The sub-graph is acyclic by
construction, so the inner loop always terminates.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.fusion import FusionPlan
from repro.operators.base import Operator, WrappedItem, destination_of, unwrap
from repro.runtime.actors import ActorBase, Router
from repro.runtime.mailbox import BoundedMailbox
from repro.runtime.supervision import (
    ActorContext,
    ActorStopped,
    Directive,
    RestartTracker,
    SupervisionEvent,
    SupervisorStrategy,
)


class _MemberRouting:
    """Sampling of one fused member's original out-edges."""

    __slots__ = ("targets", "cumulative")

    def __init__(self, targets: List[str], probabilities: List[float]) -> None:
        self.targets = targets
        self.cumulative: List[float] = []
        total = 0.0
        for probability in probabilities:
            total += probability
            self.cumulative.append(total)

    def pick(self, rng: random.Random) -> Optional[str]:
        if not self.targets:
            return None
        if len(self.targets) == 1:
            return self.targets[0]
        draw = rng.random() * self.cumulative[-1]
        for index, bound in enumerate(self.cumulative):
            if draw < bound:
                return self.targets[index]
        return self.targets[-1]


class MetaOperatorActor(ActorBase):
    """The single actor executing a fused sub-graph (Algorithm 4).

    Parameters
    ----------
    plan:
        The fusion plan (members, front-end, original member edges).
    members:
        The executable operators of the fused sub-graph, by name.
    router:
        Routing table toward external targets (one entry per exit
        vertex of the fused operator).
    """

    def __init__(self, name: str, plan: FusionPlan,
                 members: Mapping[str, Operator], router: Router,
                 mailbox: BoundedMailbox, stop_event: threading.Event,
                 seed: int = 1,
                 member_factories: Optional[
                     Mapping[str, Callable[[], Operator]]] = None,
                 strategy: Optional[SupervisorStrategy] = None,
                 context: Optional[ActorContext] = None) -> None:
        super().__init__(name, name, mailbox, stop_event, context=context)
        missing = sorted(set(plan.members) - set(members))
        if missing:
            raise ValueError(f"missing member operators: {missing}")
        self.plan = plan
        self.members = dict(members)
        self.router = router
        self._rng = random.Random(seed)
        self._member_set = frozenset(plan.members)
        self._routing: Dict[str, _MemberRouting] = {}
        for member in plan.members:
            edges = [e for e in plan.member_edges if e.source == member]
            self._routing[member] = _MemberRouting(
                targets=[e.target for e in edges],
                probabilities=[e.probability for e in edges],
            )
        # Member-level supervision: each fused member keeps the policy
        # and restart budget it would have as a standalone actor; a
        # member failure must not corrupt the routing of items headed
        # to the other members.
        self.strategy = strategy or SupervisorStrategy()
        self.member_factories = dict(member_factories or {})
        self._trackers: Dict[str, RestartTracker] = {
            member: RestartTracker(self.strategy.policy_for(member))
            for member in plan.members
        }
        self._stopped: Set[str] = set()

    def on_start(self) -> None:
        for operator in self.members.values():
            operator.on_start()

    def on_stop(self) -> None:
        for operator in self.members.values():
            operator.on_stop()

    def checkpoint_state(self) -> Dict[str, Any]:
        """Epoch snapshot of the whole fused sub-graph.

        Barriers align on the meta-actor's mailbox like on any other
        entry actor; the internal member-to-member streams are plain
        function composition on this thread, so one blob covering every
        member *is* the consistent cut of the sub-graph.
        """
        return {
            "members": {name: operator.snapshot_state()
                        for name, operator in self.members.items()},
            "rng": self._rng.getstate(),
            "router": self.router.state(),
            "stopped": set(self._stopped),
        }

    def checkpoint_restore(self, blob: Mapping[str, Any]) -> None:
        for name, state in blob["members"].items():
            self.members[name].restore_state(state)
        self._rng.setstate(blob["rng"])
        self.router.restore(blob["router"])
        self._stopped = set(blob["stopped"])

    def _migrate_member(self, member: str) -> Optional[str]:
        """Checkpoint one member, rebuild it, restore; error or ``None``."""
        if member not in self.member_factories:
            return f"{member}: no member factory, cannot migrate"
        try:
            blob = self.members[member].snapshot_state()
            fresh = self.member_factories[member]()
            fresh.on_start()
            fresh.restore_state(blob)
        except Exception as error:
            return f"{member}: {type(error).__name__}: {error}"
        old = self.members[member]
        self.members[member] = fresh
        try:
            old.on_stop()
        except Exception:
            pass  # the old instance is being discarded; best-effort
        return None

    def _on_migrate(self, ticket) -> None:
        """Drain-and-migrate fused members in-band (zero tuple loss).

        The ticket names one member or, with ``member=None``, migrates
        every live member of the sub-graph.  Member-to-member streams
        are function composition on this thread, so migrating between
        two ``handle`` calls is a consistent cut by construction.
        """
        names = ([ticket.member] if ticket.member is not None
                 else [m for m in self.plan.members if m not in self._stopped])
        errors = [error for error in map(self._migrate_member, names)
                  if error is not None]
        if not errors:
            self.migrations += 1
        ticket.acknowledge("; ".join(errors) if errors else None)

    def _log_event(self, member: str, directive: Directive,
                   error: BaseException) -> None:
        self.context.supervision.record(SupervisionEvent(
            time=self.context.now(),
            vertex=member,
            actor=self.actor_name,
            directive=directive.value,
            reason=f"{type(error).__name__}: {error}",
            item_index=self.counters.received - 1,
            restarts=self._trackers[member].total,
        ))

    def _restart_member(self, member: str) -> bool:
        try:
            self.members[member].on_stop()
        except Exception:
            pass  # old instance is broken; teardown is best-effort
        policy = self.strategy.policy_for(member)
        backoff = policy.backoff(self._trackers[member].in_window)
        if backoff > 0.0:
            self.stop_event.wait(backoff)
        try:
            fresh = self.member_factories[member]()
            fresh.on_start()
        except Exception:
            return False
        self.members[member] = fresh
        self.counters.restarts += 1
        return True

    def _stop_member(self, member: str) -> None:
        """Stop one fused member; the meta-actor itself keeps serving.

        Items later routed to a stopped member land in dead letters,
        exactly as they would hit a diverted mailbox were the member a
        standalone actor.  When the *front-end* stops, no input can be
        served at all: the whole meta-actor stops and (policy allowing)
        diverts its mailbox.
        """
        self._stopped.add(member)
        if member == self.plan.front_end:
            policy = self.strategy.policy_for(member)
            if policy.divert_on_stop:
                self._divert_inbox(member)
            raise ActorStopped

    def _on_member_failure(self, member: str, item: Any,
                           error: BaseException) -> None:
        self.counters.failed += 1
        policy = self.strategy.policy_for(member)
        directive = policy.decide(error)
        if (directive is Directive.RESTART
                and self.context.request_recovery is not None):
            # Checkpointed run: roll the whole system back instead of
            # rebuilding the member cold.  The item is not dead-lettered
            # — the replay re-delivers it through the front-end.
            self._log_event(member, directive, error)
            self.context.request_recovery(
                member, f"{type(error).__name__}: {error}")
            if policy.divert_on_stop:
                self._divert_inbox(member)
            raise ActorStopped
        if directive is Directive.RESTART:
            if member not in self.member_factories:
                directive = Directive.RESUME
            elif self._trackers[member].record(self.context.now()):
                directive = policy.exhausted_directive()
        self._log_event(member, directive, error)
        if directive is not Directive.ESCALATE:
            self.context.dead_letters.record(
                member, item, f"supervision-{directive.value}")
        if directive is Directive.RESUME:
            return
        if directive is Directive.RESTART:
            if not self._restart_member(member):
                self._log_event(member, Directive.STOP,
                                RuntimeError("restart failed"))
                self._stop_member(member)
            return
        if directive is Directive.STOP:
            self._stop_member(member)
            return
        self.context.escalate(member, f"{type(error).__name__}: {error}")
        raise ActorStopped

    def handle(self, message: Tuple[Any, str]) -> None:
        payload, origin = message
        self.counters.received += 1
        if isinstance(payload, dict):
            payload["origin"] = origin

        external: List[Tuple[str, Any]] = []
        pending: Deque[Tuple[str, Any, str]] = deque()
        pending.append((self.plan.front_end, payload, origin))

        started = time.perf_counter()
        while pending:
            member_name, item, item_origin = pending.popleft()
            if member_name in self._stopped:
                # The member's "mailbox" is diverted: the item is dead-
                # lettered and the rest of the batch routes normally.
                self.context.dead_letters.record(
                    member_name, item, "stopped-member")
                continue
            operator = self.members[member_name]
            if isinstance(item, dict):
                item["origin"] = item_origin
            try:
                outputs = operator.operator_function(item)
            except Exception as error:
                # Close the busy window before supervising: restart
                # backoff is downtime, not service time.
                now = time.perf_counter()
                self.counters.busy_time += now - started
                self._on_member_failure(member_name, item, error)
                started = time.perf_counter()
                continue
            for output in outputs:
                destination = destination_of(output)
                if destination is None:
                    destination = self._routing[member_name].pick(self._rng)
                if destination is None:
                    self.counters.emitted += 1  # a fused sink consumed it
                    continue
                if destination in self._member_set:
                    pending.append((destination, unwrap(output), member_name))
                else:
                    external.append((destination, unwrap(output)))
        self.counters.busy_time += time.perf_counter() - started
        self.counters.processed += 1

        # Deliveries happen after the busy section so measured service
        # time excludes the (possibly blocking) sends, matching how the
        # cost model separates service from backpressure.
        for destination, item in external:
            target = self.router.resolve(WrappedItem(item, destination))
            if target is None:
                self.counters.emitted += 1
                continue
            self._send(target, item)
