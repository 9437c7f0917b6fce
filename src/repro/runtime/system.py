"""The actor system: build, run and measure a topology on threads.

``ActorSystem.build`` wires one actor per single-replica operator, an
emitter + replicas + collector ensemble per parallelized operator
(Section 4.2 "Generation of parallel operators") and one meta-operator
actor per fused sub-graph ("Generation with operator fusion").  ``run``
executes the system for a wall-clock duration, snapshots the counters
after a warmup period, and returns per-vertex steady-state rates
comparable one-to-one with the cost-model predictions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.core.fusion import FusionPlan
from repro.core.graph import (
    CheckpointConfig,
    Edge,
    StateKind,
    Topology,
    TopologyError,
)
from repro.core.partitioning import key_partitioning
from repro.core.steady_state import SteadyStateResult
from repro.operators.base import Operator, instantiate_operator, unwrap

if TYPE_CHECKING:  # imported lazily at runtime (repro.faults imports
    # repro.runtime.supervision, which triggers this package's __init__)
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
from repro.runtime.actors import (
    ActorBase,
    BatchingTarget,
    CollectorActor,
    EmitterActor,
    OperatorActor,
    Router,
    ScaleDirective,
    SourceActor,
    Target,
)
from repro.runtime.checkpoint import (
    CheckpointRestoreError,
    CheckpointSession,
    MigrationTicket,
)
from repro.runtime.mailbox import BoundedMailbox
from repro.runtime.meta import MetaOperatorActor
from repro.runtime.metrics import (
    ActorRates,
    CounterSnapshot,
    RuntimeMeasurements,
    rates_between,
)
from repro.runtime.supervision import (
    ActorContext,
    BlockedActor,
    DeadLetterSink,
    StallWatchdog,
    SupervisionLog,
    SupervisorStrategy,
    WatchdogReport,
    attach_leak,
)

OperatorFactory = Callable[[], Operator]


@dataclass
class _Ensemble:
    """Live-scaling wiring of one elastic vertex.

    Kept only for vertices built as emitter + replicas + collector so
    the controller can spawn/retire replicas mid-run: the spawn closure
    reproduces exactly what ``_defer_parallel`` builds per replica
    (mailbox, per-replica router into the collector, operator factory
    with its own fault clock).
    """

    vertex: str
    emitter: EmitterActor
    #: ``spawn(index)`` builds one fresh, unstarted replica.
    spawn: Callable[[int], "Tuple[Target, OperatorActor]"]
    #: Next fresh replica index (never reused, so actor names and fault
    #: clock keys stay unique across scale up/down cycles).
    next_index: int
    #: Live replicas in emitter order (target, actor) — the emitter's
    #: ``replicas`` list is always a projection of this.
    members: "List[Tuple[Target, OperatorActor]]"


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of an actor-system run."""

    mailbox_capacity: int = 64
    put_timeout: Optional[float] = 5.0
    source_rate: Optional[float] = None
    max_items: Optional[int] = None
    partition_heuristic: str = "greedy"
    seed: int = 1
    #: Default mailbox batching for every edge: tuples per batched
    #: message (1 = unbatched) and the deadline before a busy sender's
    #: partial batch flushes anyway (an idle sender flushes at once).
    #: ``Edge.batch`` overrides both per edge.
    batch_size: int = 1
    batch_flush_timeout: float = 0.05
    #: How fused sub-graphs execute: ``"meta"`` runs the Algorithm 4
    #: meta-operator actor, ``"loop"`` forces loop-compiled operators
    #: (see :mod:`repro.codegen.fuseloop`) and raises for ineligible
    #: plans, ``"auto"`` loop-compiles eligible plans and falls back to
    #: the meta-operator otherwise.
    fusion_mode: str = "meta"
    #: Per-vertex supervision policies; ``None`` = Akka-like defaults
    #: (Resume on error, Restart on injected crashes).
    supervisor: Optional[SupervisorStrategy] = None
    #: Seeded fault plan to inject (see :mod:`repro.faults`); ``None``
    #: runs fault-free.
    fault_plan: Optional["FaultPlan"] = None
    #: Stall watchdog sampling interval and no-progress timeout; the
    #: watchdog aborts runs whose actors are all blocked (BAS deadlock)
    #: instead of letting them hang.  ``watchdog=False`` disables it.
    watchdog: bool = True
    watchdog_interval: float = 0.1
    watchdog_stall_timeout: float = 1.0
    #: Aligned-barrier checkpointing (see
    #: :mod:`repro.runtime.checkpoint`).  ``None`` falls back to the
    #: topology's own ``checkpoint`` attribute; both ``None`` disables
    #: checkpointing entirely (the default — zero overhead).
    checkpoint: Optional[CheckpointConfig] = None
    #: Dead-letter payload retention cap (see
    #: :class:`repro.runtime.supervision.DeadLetterSink`).
    dead_letter_retain: int = 100
    #: Build every stateless non-source vertex as an emitter + replicas
    #: + collector ensemble even at replication 1, so the adaptive
    #: controller (:mod:`repro.runtime.adaptive`) can scale replicas
    #: up/down behind the emitter while the system runs.  Off by
    #: default — static runs pay zero extra actors.  Incompatible with
    #: checkpointing (the barrier channel set is fixed at wiring time).
    elastic: bool = False
    #: Escape hatch for the SS3xx deployment-safety gates: ``True``
    #: builds even when the static analyzer proves the triple unsafe
    #: (see :mod:`repro.analysis.deploy`).
    unsafe: bool = False


class RuntimeResult:
    """Measured behaviour of a finished actor-system run."""

    def __init__(self, topology: Topology,
                 measurements: RuntimeMeasurements,
                 supervision: Optional[SupervisionLog] = None,
                 dead_letters: Optional[DeadLetterSink] = None,
                 watchdog: Optional[WatchdogReport] = None,
                 leaked_actors: Sequence[str] = (),
                 failure: Optional[str] = None) -> None:
        self.topology = topology
        self.measurements = measurements
        self.vertices = measurements.vertex_rates()
        #: Supervision event log of the run (empty when nothing failed).
        self.supervision = supervision or SupervisionLog()
        #: Where every dropped tuple went instead of silently vanishing.
        self.dead_letters = dead_letters or DeadLetterSink()
        #: Stall/deadlock/thread-leak verdict, ``None`` on clean runs.
        self.watchdog = watchdog
        #: Actors still alive after ``stop`` joined with its timeout.
        self.leaked_actors = tuple(leaked_actors)
        #: Escalated failure that aborted the run, ``None`` otherwise.
        self.failure = failure

    @property
    def dropped_messages(self) -> int:
        """Tuples lost to mailbox put timeouts over the whole run."""
        return self.measurements.total_dropped()

    @property
    def throughput(self) -> float:
        """Measured topology throughput: source departure rate."""
        return self.vertices[self.topology.source].departure_rate

    def mean_latency(self) -> Optional[float]:
        """Mean end-to-end latency over all sink consumptions (seconds).

        Based on the birth timestamps the source stamps into records;
        ``None`` when no record reached a sink during the window.
        """
        samples = 0
        weighted = 0.0
        for rates in self.measurements.actors.values():
            if rates.mean_latency is not None:
                weighted += rates.mean_latency * rates.latency_samples
                samples += rates.latency_samples
        if samples == 0:
            return None
        return weighted / samples

    def departure_rate(self, vertex: str) -> float:
        return self.vertices[vertex].departure_rate

    def utilization(self, vertex: str) -> float:
        return self.vertices[vertex].utilization

    def throughput_error(self, predicted: SteadyStateResult) -> float:
        if predicted.throughput <= 0.0:
            raise TopologyError("predicted throughput must be positive")
        return abs(self.throughput - predicted.throughput) / predicted.throughput


class ActorSystem:
    """A set of wired actors executing one topology."""

    def __init__(self, topology: Topology, config: RuntimeConfig) -> None:
        self.topology = topology
        self.config = config
        self.stop_event = threading.Event()
        self.actors: List[ActorBase] = []
        self.source_actor: Optional[SourceActor] = None
        self._entries: Dict[str, Target] = {}
        self._mailboxes: List[BoundedMailbox] = []
        self._routers: Dict[str, Router] = {}
        #: The actor whose thread drives each vertex's out-router (the
        #: collector for parallel vertices) — the owner of any batching
        #: buffers on those edges.
        self._router_owners: Dict[str, ActorBase] = {}
        #: How each fused vertex actually executes: ``"loop"`` when its
        #: chain was loop-compiled, ``"meta"`` for the meta-actor.
        self.fusion_executions: Dict[str, str] = {}
        #: Live-scaling wiring per elastic vertex (see :class:`_Ensemble`);
        #: populated only for vertices built as ensembles.
        self._ensembles: Dict[str, _Ensemble] = {}
        #: Serializes live reconfigurations (controller vs. tests).
        self._reconfig_lock = threading.Lock()
        #: Completed live reconfiguration actions (scales + migrations).
        self.reconfigurations = 0
        self._started = False
        self.supervisor = config.supervisor or SupervisorStrategy()
        self.injector: Optional["FaultInjector"] = None
        if config.fault_plan is not None:
            from repro.faults.injector import FaultInjector
            self.injector = FaultInjector(config.fault_plan)
        #: Set when an Escalate directive or the watchdog aborts the
        #: run; ``run`` waits on it instead of sleeping blindly.
        self.failure = threading.Event()
        self.failure_reason: Optional[str] = None
        #: Set when a crashed actor of a checkpointed run asks for a
        #: system-wide rollback (watched by ``run_recoverable``).
        self.recovery = threading.Event()
        self.recovery_vertex: Optional[str] = None
        self.recovery_reason: Optional[str] = None
        #: The checkpoint session of this run, ``None`` when
        #: checkpointing is off.  Shared across the rebuilds of one
        #: ``run_recoverable`` drive.
        self.checkpoint_session: Optional[CheckpointSession] = None
        self.context = ActorContext(
            dead_letters=DeadLetterSink(retain=config.dead_letter_retain),
            escalate=self._fail,
        )
        self.watchdog_report: Optional[WatchdogReport] = None
        self._watchdog: Optional[StallWatchdog] = None

    def _fail(self, vertex: str, reason: str) -> None:
        """Escalation endpoint: abort the run, remember why."""
        if self.failure_reason is None:
            self.failure_reason = f"{vertex}: {reason}"
        self.failure.set()

    def _request_recovery(self, vertex: str, reason: str) -> None:
        """Recovery endpoint: remember the crash, wake the driver."""
        if self.recovery_reason is None:
            self.recovery_vertex = vertex
            self.recovery_reason = reason
        self.recovery.set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        topology: Topology,
        factories: Mapping[str, OperatorFactory],
        config: Optional[RuntimeConfig] = None,
        fusion_plans: Sequence[FusionPlan] = (),
        checkpoint: Optional[CheckpointSession] = None,
    ) -> "ActorSystem":
        """Wire the actors of ``topology``.

        ``factories`` maps operator names to zero-argument callables
        producing fresh :class:`Operator` instances (one per replica).
        For fused vertices, the factories of the *member* operators must
        be provided (not one for the fused name).  Operators without a
        factory fall back to the spec's ``operator_class``.

        ``checkpoint`` is an existing :class:`CheckpointSession` (the
        ``run_recoverable`` driver passes one so the store and fault
        clocks survive rebuilds); without it, a fresh session is created
        when ``config.checkpoint`` or ``topology.checkpoint`` is set.
        """
        config = config or RuntimeConfig()
        system = cls(topology, config)
        session = checkpoint
        if session is None:
            checkpoint_config = config.checkpoint or topology.checkpoint
            if checkpoint_config is not None:
                session = CheckpointSession(checkpoint_config)
        if session is not None:
            system.checkpoint_session = session
            system.context.request_recovery = system._request_recovery
        if config.elastic and session is not None:
            raise TopologyError(
                "elastic mode is incompatible with checkpointing: the "
                "barrier channel set is fixed at wiring time (rule SS310)"
            )
        if not config.unsafe and (session is not None or config.elastic):
            from repro.analysis.deploy import deploy_errors
            rules: List[str] = []
            if session is not None:
                rules += ["SS302", "SS303"]
            if config.elastic:
                rules += ["SS304", "SS305"]
            blocking = deploy_errors(topology, rules)
            if blocking:
                raise TopologyError(
                    "deployment-safety gate refused the build "
                    "(unsafe=True overrides): "
                    + "; ".join(d.render() for d in blocking[:3])
                )
        plans = {plan.fused_name: plan for plan in fusion_plans}

        def make_operator(name: str) -> Operator:
            factory = factories.get(name)
            if factory is not None:
                return factory()
            spec = topology.operator(name) if name in topology else None
            if spec is not None and spec.operator_class:
                return instantiate_operator(spec.operator_class,
                                            spec.operator_args)
            raise TopologyError(
                f"no factory nor operator_class for operator {name!r}"
            )

        # Pass 1: create the entry point (mailbox) of every vertex.
        deferred: List[Callable[[], None]] = []
        for spec in topology.operators:
            name = spec.name
            router = Router(name, seed=config.seed + _stable_hash(name))
            system._routers[name] = router
            if name == topology.source:
                deferred.append(system._defer_source(name, make_operator, router))
                continue
            if name in plans:
                deferred.append(
                    system._defer_meta(plans[name], factories, make_operator,
                                       router)
                )
                continue
            if spec.replication > 1 or (config.elastic
                                        and spec.state is StateKind.STATELESS):
                deferred.append(
                    system._defer_parallel(spec.name, make_operator, router)
                )
            else:
                deferred.append(
                    system._defer_single(spec.name, make_operator, router)
                )
        for build_actor in deferred:
            build_actor()

        # Pass 2: connect the routers now that every entry exists.
        # Batched edges get a per-sender BatchingTarget wrapping the
        # shared entry mailbox, so batch buffers stay thread-confined.
        for spec in topology.operators:
            router = system._routers[spec.name]
            owner = system._router_owners.get(spec.name)
            for edge in topology.out_edges(spec.name):
                entry = system._entries[edge.target]
                router.add(edge.probability,
                           system._edge_target(edge, entry, owner))
            if owner is not None:
                owner.batch_targets = [
                    target for target in router.targets
                    if isinstance(target, BatchingTarget)
                ]
        if session is not None:
            system._wire_checkpoint(session)
        return system

    def _wire_checkpoint(self, session: CheckpointSession) -> None:
        """Attach every actor to the checkpoint session (after pass 2).

        Computes each actor's barrier *channels* (origins expected to
        deliver barriers to its mailbox) and barrier *targets* (where
        aligned barriers are forwarded), declares the expected actor set
        to the store, and applies the session's pending epoch restore.
        """
        preds = {name: tuple(self.topology.predecessors(name))
                 for name in self.topology.names}
        for actor in self.actors:
            vertex = actor.vertex
            if isinstance(actor, SourceActor):
                actor.configure_checkpoint(session, (), actor.router.targets)
            elif isinstance(actor, EmitterActor):
                # The emitter broadcasts aligned barriers to every
                # replica under its own origin so the collector can
                # re-align them per replica channel.
                actor.origin_name = actor.actor_name
                actor.configure_checkpoint(session, preds[vertex],
                                           actor.replicas)
            elif isinstance(actor, CollectorActor):
                replica_names = tuple(
                    peer.actor_name for peer in self.actors
                    if peer.vertex == vertex
                    and isinstance(peer, OperatorActor))
                actor.configure_checkpoint(session, replica_names,
                                           actor.router.targets)
            elif isinstance(actor, OperatorActor) \
                    and actor.actor_name != vertex:
                # A replica: barriers come from the emitter only, and
                # go out under the replica's own origin.
                actor.origin_name = actor.actor_name
                actor.configure_checkpoint(session,
                                           (f"{vertex}.emitter",),
                                           actor.router.targets)
            else:
                # Single, loop-compiled or meta entry actor.
                actor.configure_checkpoint(session, preds[vertex],
                                           actor.router.targets)
        session.store.set_expected(
            actor.actor_name for actor in self.actors)
        restored = session.restore
        if restored is None:
            return
        for actor in self.actors:
            blob = restored.states.get(actor.actor_name)
            if blob is None:
                continue
            try:
                actor.checkpoint_restore(blob)
            except Exception as error:
                wrapped = CheckpointRestoreError(
                    f"restoring epoch {restored.epoch} on actor "
                    f"{actor.actor_name!r} failed: "
                    f"{type(error).__name__}: {error}")
                wrapped.vertex = actor.vertex
                raise wrapped from error

    def _edge_target(self, edge: Edge, entry: Target,
                     owner: Optional[ActorBase]) -> Target:
        """The delivery endpoint of one edge: batched or direct."""
        if edge.batch is not None:
            size = edge.batch.size
            flush_timeout = edge.batch.flush_timeout
        else:
            size = self.config.batch_size
            flush_timeout = self.config.batch_flush_timeout
        if size <= 1:
            return entry
        on_drop = None
        if owner is not None:
            counters = owner.counters
            vertex = owner.vertex
            dead_letters = self.context.dead_letters

            def on_drop(items: Sequence[object], reason: str) -> None:
                # Runs on the owning actor's thread (flush is only ever
                # called there), so single-writer counters hold.  The
                # tuples were pre-counted as emitted when buffered;
                # reclassify them as dropped now that the batched put
                # timed out or found the receiver closed.
                counters.emitted -= len(items)
                counters.dropped += len(items)
                for item in items:
                    dead_letters.record(vertex, unwrap(item), reason)

        return BatchingTarget(entry.name, entry.mailbox, size,
                              flush_timeout, on_drop=on_drop)

    def _new_mailbox(self, vertex: Optional[str] = None) -> BoundedMailbox:
        mailbox = BoundedMailbox(self.config.mailbox_capacity,
                                 put_timeout=self.config.put_timeout)
        if vertex is not None and self.injector is not None:
            windows = self.injector.schedule(vertex).drop_windows
            if windows:
                mailbox.set_drop_windows(windows)
        self._mailboxes.append(mailbox)
        return mailbox

    def _vertex_factory(self, name: str, make_operator,
                        clock_key: Optional[str] = None) -> OperatorFactory:
        """Zero-argument factory for one actor's operator instances.

        When the fault plan touches this vertex, every instance the
        factory produces is wrapped in a :class:`FaultyOperator` sharing
        one :class:`ItemClock` — so a supervision restart resumes the
        vertex's logical fault schedule instead of replaying it.
        Call once per actor (each replica needs its own clock, keyed by
        ``clock_key``).

        In a checkpointed run the clock lives in the session registry,
        surviving teardown/rebuild recovery cycles: replayed items get
        *new* clock indices, so a crash fault that already fired never
        fires again (otherwise recovery could never progress).
        """
        if self.injector is None:
            return lambda: make_operator(name)
        schedule = self.injector.schedule(name)
        if schedule.empty:
            return lambda: make_operator(name)
        from repro.faults.injector import FaultyOperator, ItemClock
        session = self.checkpoint_session
        key = clock_key or name
        if session is not None and key in session.clocks:
            clock = session.clocks[key]
        else:
            clock = ItemClock()
            if session is not None:
                session.clocks[key] = clock
        return lambda: FaultyOperator(make_operator(name), schedule, clock)

    def _defer_source(self, name: str, make_operator, router: Router):
        def build() -> None:
            factory = self._vertex_factory(name, make_operator)
            actor = SourceActor(
                name=name,
                operator=factory(),
                router=router,
                stop_event=self.stop_event,
                rate=self.config.source_rate,
                max_items=self.config.max_items,
                context=self.context,
            )
            self.actors.append(actor)
            self.source_actor = actor
            self._router_owners[name] = actor
        return build

    def _defer_single(self, name: str, make_operator, router: Router):
        def build() -> None:
            mailbox = self._new_mailbox(vertex=name)
            factory = self._vertex_factory(name, make_operator)
            actor = OperatorActor(
                name=name,
                vertex=name,
                operator=factory(),
                router=router,
                mailbox=mailbox,
                stop_event=self.stop_event,
                operator_factory=factory,
                policy=self.supervisor.policy_for(name),
                context=self.context,
            )
            self.actors.append(actor)
            self._entries[name] = Target(name, mailbox)
            self._router_owners[name] = actor
        return build

    def _defer_parallel(self, name: str, make_operator, router: Router):
        def build() -> None:
            spec = self.topology.operator(name)
            collector_mailbox = self._new_mailbox()
            collector = CollectorActor(
                name=f"{name}.collector",
                vertex=name,
                router=router,
                mailbox=collector_mailbox,
                stop_event=self.stop_event,
                context=self.context,
            )
            collector_target = Target(name, collector_mailbox)

            def spawn(index: int) -> Tuple[Target, OperatorActor]:
                """One replica exactly as pass 1 builds it (unstarted)."""
                replica_mailbox = self._new_mailbox()
                replica_router = Router(f"{name}#{index}")
                replica_router.add(1.0, collector_target)
                factory = self._vertex_factory(name, make_operator,
                                               clock_key=f"{name}#{index}")
                actor = OperatorActor(
                    name=f"{name}#{index}",
                    vertex=name,
                    operator=factory(),
                    router=replica_router,
                    mailbox=replica_mailbox,
                    stop_event=self.stop_event,
                    keep_wrapped=True,
                    operator_factory=factory,
                    policy=self.supervisor.policy_for(name),
                    context=self.context,
                )
                return Target(name, replica_mailbox), actor

            members: List[Tuple[Target, OperatorActor]] = []
            replica_targets: List[Target] = []
            operators: List[Operator] = []
            for index in range(spec.replication):
                target, actor = spawn(index)
                self.actors.append(actor)
                members.append((target, actor))
                replica_targets.append(target)
                operators.append(actor.operator)

            key_of = None
            key_assignment = None
            if spec.state is StateKind.PARTITIONED:
                key_of = operators[0].key_of
                assert spec.keys is not None  # enforced by OperatorSpec
                _, _, plan = key_partitioning(
                    spec.keys, spec.replication,
                    heuristic=self.config.partition_heuristic,
                )
                key_assignment = plan.assignment

            emitter_mailbox = self._new_mailbox(vertex=name)
            emitter = EmitterActor(
                name=f"{name}.emitter",
                vertex=name,
                replicas=replica_targets,
                mailbox=emitter_mailbox,
                stop_event=self.stop_event,
                key_of=key_of,
                key_assignment=key_assignment,
                context=self.context,
            )
            self.actors.append(emitter)
            self.actors.append(collector)
            self._entries[name] = Target(name, emitter_mailbox)
            self._router_owners[name] = collector
            if key_of is None:
                # Stateless (round-robin) vertices can live-scale; a
                # fixed key-to-replica assignment cannot be resized
                # without re-partitioning state, so partitioned
                # ensembles stay static.
                self._ensembles[name] = _Ensemble(
                    vertex=name,
                    emitter=emitter,
                    spawn=spawn,
                    next_index=spec.replication,
                    members=members,
                )
        return build

    def _defer_meta(self, plan: FusionPlan, factories, make_operator,
                    router: Router):
        def build() -> None:
            mode = self.config.fusion_mode
            if mode not in ("meta", "loop", "auto"):
                raise TopologyError(
                    f"fusion_mode must be 'meta', 'loop' or 'auto', "
                    f"got {mode!r}"
                )
            mailbox = self._new_mailbox(vertex=plan.fused_name)
            member_factories = {
                name: self._vertex_factory(name, make_operator)
                for name in plan.members
            }
            members = {name: factory()
                       for name, factory in member_factories.items()}
            if mode != "meta" and self._try_loop(plan, members, mailbox,
                                                 router, mode):
                return
            self.fusion_executions[plan.fused_name] = "meta"
            actor = MetaOperatorActor(
                name=plan.fused_name,
                plan=plan,
                members=members,
                router=router,
                mailbox=mailbox,
                stop_event=self.stop_event,
                seed=self.config.seed,
                member_factories=member_factories,
                strategy=self.supervisor,
                context=self.context,
            )
            self.actors.append(actor)
            self._entries[plan.fused_name] = Target(plan.fused_name, mailbox)
            self._router_owners[plan.fused_name] = actor
        return build

    def _try_loop(self, plan: FusionPlan, members, mailbox: BoundedMailbox,
                  router: Router, mode: str) -> bool:
        """Build a loop-compiled actor for a fused vertex if admissible.

        Returns ``True`` when the loop actor was built.  ``"loop"`` mode
        raises for inadmissible plans; ``"auto"`` silently falls back to
        the meta-operator.  Fault injection on any member forces the
        meta-actor regardless (the injected wrapper is deliberately
        impure, and member-level supervision needs the meta path).
        """
        from repro.codegen.fuseloop import (
            LoopOperator,
            loop_eligibility_from_operators,
        )
        faulted = []
        if self.injector is not None:
            faulted = [name for name in plan.members
                       if not self.injector.schedule(name).empty]
        verdict = loop_eligibility_from_operators(plan, members)
        if faulted or not verdict.eligible:
            if mode == "loop":
                reasons = list(verdict.reasons)
                if faulted:
                    reasons.append(
                        f"fault plan injects into members {sorted(faulted)}")
                raise TopologyError(
                    f"fusion plan {plan.fused_name!r} cannot be "
                    f"loop-compiled: {'; '.join(reasons)}"
                )
            return False
        operator = LoopOperator(plan, members, chain=verdict.chain)
        actor = OperatorActor(
            name=plan.fused_name,
            vertex=plan.fused_name,
            operator=operator,
            router=router,
            mailbox=mailbox,
            stop_event=self.stop_event,
            policy=self.supervisor.policy_for(plan.fused_name),
            context=self.context,
        )
        self.actors.append(actor)
        self._entries[plan.fused_name] = Target(plan.fused_name, mailbox)
        self._router_owners[plan.fused_name] = actor
        self.fusion_executions[plan.fused_name] = "loop"
        return True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("actor system already started")
        self._started = True
        for actor in self.actors:
            actor.start()
        if self.config.watchdog:
            self._watchdog = StallWatchdog(
                progress=self._progress,
                blocked=self._blocked_actors,
                on_stall=self._on_stall,
                interval=self.config.watchdog_interval,
                stall_timeout=self.config.watchdog_stall_timeout,
            )
            self._watchdog.start()

    def _progress(self) -> int:
        """Monotone system-wide progress counter sampled by the watchdog."""
        return sum(actor.counters.processed + actor.counters.emitted
                   + actor.counters.dropped + actor.counters.failed
                   for actor in self.actors)

    def _blocked_actors(self) -> List[BlockedActor]:
        return [
            BlockedActor(actor=actor.actor_name, vertex=actor.vertex,
                         blocked_on=blocked_on)
            for actor in self.actors
            if (blocked_on := actor.blocked_on) is not None
        ]

    def _on_stall(self, report: WatchdogReport) -> None:
        self.watchdog_report = report
        self._fail("<watchdog>", report.verdict)

    def stop(self, join_timeout: float = 5.0) -> List[str]:
        """Stop and join every actor; returns the leaked actor names.

        Closing the mailboxes wakes senders blocked on full mailboxes
        (they observe :class:`MailboxClosed` and exit), so a deadlocked
        system unwinds here.  Actors still alive after the join timeout
        are reported instead of silently leaking their threads.
        """
        self.stop_event.set()
        # Graceful pass: retire actors in topological order so a final
        # partial batch force-flushed by an exiting actor lands in a
        # still-open downstream mailbox instead of being lost — batched
        # shutdown stays as lossless as unbatched shutdown (receivers
        # drain closed mailboxes before exiting).  A healthy actor exits
        # within milliseconds of its mailbox closing; the first one that
        # doesn't (a deadlocked or wedged system) aborts the pass and
        # falls through to the global close below, which wakes every
        # blocked sender at once.
        grace = min(1.0, join_timeout)
        by_vertex: Dict[str, List[ActorBase]] = {}
        for actor in self.actors:
            by_vertex.setdefault(actor.vertex, []).append(actor)
        graceful = True
        for name in self.topology.names:
            if not graceful:
                break
            for actor in by_vertex.get(name, ()):
                actor.mailbox.close()
                if actor.is_alive():
                    actor.join(timeout=grace)
                if actor.is_alive():
                    graceful = False
                    break
        for mailbox in self._mailboxes:
            mailbox.close()
        for actor in self.actors:
            if actor.is_alive():
                actor.join(timeout=join_timeout)
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog.join(timeout=join_timeout)
            self._watchdog = None
        leaked = [actor.actor_name for actor in self.actors
                  if actor.is_alive()]
        return leaked

    def snapshot(self) -> Dict[str, CounterSnapshot]:
        return {actor.actor_name: actor.counters.snapshot()
                for actor in self.actors}

    # ------------------------------------------------------------------
    # live reconfiguration (see repro.runtime.adaptive)
    # ------------------------------------------------------------------
    def scalable_vertices(self) -> List[str]:
        """Vertices whose replica count can change while running."""
        return sorted(self._ensembles)

    def replication_of(self, vertex: str) -> int:
        """The vertex's current live replica count."""
        ensemble = self._ensembles.get(vertex)
        if ensemble is not None:
            return len(ensemble.members)
        return 1

    def set_source_rate(self, rate: Optional[float]) -> None:
        """Change the source's arrival rate mid-run (``None`` = max)."""
        if self.source_actor is None:
            raise TopologyError("system has no source actor")
        self.source_actor.rate = rate

    def scale_vertex(self, vertex: str, replicas: int,
                     timeout: float = 10.0) -> int:
        """Resize a vertex's replica set without stopping the world.

        Scale-up spawns fresh replicas behind the existing emitter;
        scale-down routes a :class:`ScaleDirective` through the
        emitter's mailbox so the swap happens on the emitter thread and
        retire notices drain outgoing replicas in FIFO order — zero
        tuples are lost either way.  Returns the signed replica delta.
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        ensemble = self._ensembles.get(vertex)
        if ensemble is None:
            raise TopologyError(
                f"vertex {vertex!r} is not live-scalable (build the "
                f"system with RuntimeConfig(elastic=True), and only "
                f"stateless vertices scale)"
            )
        with self._reconfig_lock:
            current = len(ensemble.members)
            delta = replicas - current
            if delta == 0:
                return 0
            retired: List[Tuple[Target, OperatorActor]] = []
            if delta > 0:
                for _ in range(delta):
                    target, actor = ensemble.spawn(ensemble.next_index)
                    ensemble.next_index += 1
                    self.actors.append(actor)
                    if self._started:
                        actor.start()
                    ensemble.members.append((target, actor))
            else:
                retired = ensemble.members[replicas:]
                ensemble.members = ensemble.members[:replicas]
            targets = [target for target, _ in ensemble.members]
            if not self._started:
                # No threads yet: swap directly, nothing to drain.
                ensemble.emitter.replicas = targets
            else:
                directive = ScaleDirective(
                    targets, [target for target, _ in retired])
                ensemble.emitter.mailbox.put(
                    (directive, "<scale>"), control=True)
                if not directive.done.wait(timeout):
                    raise TimeoutError(
                        f"emitter of {vertex!r} did not apply the scale "
                        f"directive within {timeout:g}s")
                deadline = time.perf_counter() + timeout
                for target, actor in retired:
                    actor.join(timeout=max(
                        0.0, deadline - time.perf_counter()))
                    if actor.is_alive():
                        raise TimeoutError(
                            f"retired replica {actor.actor_name!r} did "
                            f"not drain within {timeout:g}s")
                    target.mailbox.close()
            self.reconfigurations += 1
            return delta

    def migrate_vertex(self, vertex: str, member: Optional[str] = None,
                       timeout: float = 10.0) -> MigrationTicket:
        """Drain-and-migrate a vertex's operator state in-band.

        Enqueues a :class:`MigrationTicket` behind all in-flight data;
        the owning actor(s) perform "checkpoint → rebuild → restore →
        resume" on their own threads (emitters fan the ticket out to
        every replica; meta-actors migrate ``member`` or all members).
        Returns the completed ticket — inspect ``.ok`` / ``.errors``.
        """
        entry = self._entries.get(vertex)
        if entry is None:
            raise TopologyError(
                f"vertex {vertex!r} has no entry mailbox (sources "
                f"cannot migrate in-band)")
        ticket = MigrationTicket(vertex, member=member)
        with self._reconfig_lock:
            entry.mailbox.put((ticket, "<migrate>"), control=True)
            if not ticket.wait(timeout):
                raise TimeoutError(
                    f"migration of {vertex!r} did not complete within "
                    f"{timeout:g}s")
            if ticket.ok:
                self.reconfigurations += 1
        return ticket

    def run(self, duration: float, warmup: Optional[float] = None
            ) -> RuntimeResult:
        """Run for ``duration`` seconds, measuring after ``warmup``.

        ``warmup`` defaults to a quarter of the duration.  The run ends
        early when a failure escalates to the system level or the stall
        watchdog fires; the result then carries the failure reason and
        the watchdog verdict next to whatever rates were measured.
        """
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        if warmup is None:
            warmup = duration * 0.25
        if not 0.0 <= warmup < duration:
            raise ValueError(f"warmup must be in [0, duration), got {warmup}")
        self.start()
        try:
            aborted = self.failure.wait(warmup)
            before = self.snapshot()
            started = time.perf_counter()
            if not aborted:
                self.failure.wait(duration - warmup)
            after = self.snapshot()
            window = max(time.perf_counter() - started, 1e-9)
        finally:
            leaked = self.stop()
        rates: Dict[str, ActorRates] = {}
        for actor in self.actors:
            # Replicas spawned mid-window by a live reconfiguration have
            # no "before" snapshot: they start from zero counters.
            rates[actor.actor_name] = rates_between(
                actor.actor_name, actor.vertex,
                before.get(actor.actor_name, CounterSnapshot()),
                after[actor.actor_name], window,
            )
        measurements = RuntimeMeasurements(duration=window, actors=rates,
                                           totals=self.snapshot())
        return RuntimeResult(
            self.topology,
            measurements,
            supervision=self.context.supervision,
            dead_letters=self.context.dead_letters,
            watchdog=attach_leak(self.watchdog_report, leaked),
            leaked_actors=leaked,
            failure=self.failure_reason,
        )


def run_topology(
    topology: Topology,
    factories: Mapping[str, OperatorFactory],
    duration: float = 2.0,
    warmup: Optional[float] = None,
    config: Optional[RuntimeConfig] = None,
    fusion_plans: Sequence[FusionPlan] = (),
) -> RuntimeResult:
    """Build, run and measure a topology in one call."""
    system = ActorSystem.build(topology, factories, config=config,
                               fusion_plans=fusion_plans)
    return system.run(duration, warmup=warmup)


def _stable_hash(text: str) -> int:
    """Deterministic small hash (process-independent, unlike ``hash``)."""
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) % 1_000_003
    return value
