"""The actor system: build, run and measure a topology on threads.

``ActorSystem.build`` translates the topology into its physical plan
(:mod:`repro.core.physical`: one node per single-replica operator, an
emitter + replicas + collector ensemble per parallelized operator —
Section 4.2 "Generation of parallel operators" — and one node per fused
sub-graph, "Generation with operator fusion") and ``wire`` builds one
actor per node of one shard of that plan; a :mod:`repro.runtime.
procshard` worker is the same class over its own shard.  ``run``
executes the system for a wall-clock duration, snapshots the counters
after a warmup period, and returns per-vertex steady-state rates
comparable one-to-one with the cost-model predictions; ``drain`` ends a
finite job by retiring the actors in the plan's order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from typing import TYPE_CHECKING

from repro.core.fusion import FusionPlan
from repro.core.graph import CheckpointConfig, Topology, TopologyError
from repro.core.physical import Link, Node, PhysicalPlan, build_plan
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


#: How long a lifecycle wait blocks before it looks at the failure,
#: recovery and abort events again (a join returns at once on exit).
_WATCH_SECONDS = 0.02


@dataclass
class _Ensemble:
    """Live-scaling state of one round-robin ensemble.

    Kept for vertices wired as emitter + replicas + collector without a
    key assignment, so ``scale_vertex`` can add and retire replicas
    behind the emitter mid-run.
    """

    vertex: str
    emitter: EmitterActor
    #: Next fresh replica index (never reused, so actor names and fault
    #: clock keys stay unique across scale up/down cycles).
    next_index: int
    #: Live replicas in emitter order — the emitter's ``replicas`` list
    #: is always a projection of this.
    members: List[OperatorActor]


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
        #: Ends generation only: the graceful stop.  Everything behind
        #: the source then retires in the plan's order, losslessly.
        self.source_stop = threading.Event()
        #: The abort: every other actor leaves its loop once idle.
        self.stop_event = threading.Event()
        self.actors: List[ActorBase] = []
        self.source_actor: Optional[SourceActor] = None
        #: The physical plan ``wire`` built this system's actors from.
        self.plan = PhysicalPlan()
        #: The mailbox of every local non-source actor, by node id.
        self.mailboxes: Dict[str, BoundedMailbox] = {}
        self._remote: Mapping[int, BatchingTarget] = {}
        self._factories: Mapping[str, OperatorFactory] = {}
        self._fusion_plans: Dict[str, FusionPlan] = {}
        #: How each fused vertex actually executes: ``"loop"`` when its
        #: chain was loop-compiled, ``"meta"`` for the meta-actor.
        self.fusion_executions: Dict[str, str] = {}
        #: Live-scaling state per scalable vertex (see :class:`_Ensemble`).
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
        plan = build_plan(
            topology, batch_size=config.batch_size,
            batch_flush_timeout=config.batch_flush_timeout,
            partition_heuristic=config.partition_heuristic,
            fused=[fusion.fused_name for fusion in fusion_plans],
            elastic=config.elastic)
        system.wire(plan, factories, fusion_plans)
        if session is not None:
            system._wire_checkpoint(session)
        return system

    def wire(self, plan: PhysicalPlan,
             factories: Mapping[str, OperatorFactory],
             fusion_plans: Sequence[FusionPlan] = (), shard: int = 0,
             remote: Optional[Mapping[int, BatchingTarget]] = None) -> None:
        """Build one actor per node of ``shard`` of ``plan``.

        ``remote`` maps the channel of every link that leaves the shard
        to the batching sender standing in for the receiver's mailbox
        (:class:`repro.runtime.procshard.ChannelSender`); links arriving
        from other shards are fed into :attr:`mailboxes` by the caller.
        """
        self.plan = plan
        self._factories = factories
        self._fusion_plans = {fusion.fused_name: fusion
                              for fusion in fusion_plans}
        self._remote = remote or {}
        local = plan.shard_nodes(shard)
        for node in local:
            if node.kind != "source":
                self._new_mailbox(node)
        for node in local:
            self._build_node(node, plan.links_from[node.node_id])

    def _wire_checkpoint(self, session: CheckpointSession) -> None:
        """Attach every actor to the checkpoint session (after ``wire``).

        An actor's barrier *channels* are the origins its incoming links
        stamp (replicas and emitters send under their own actor name so
        the next hop can align them per channel, everything else under
        its vertex); its barrier *targets* are its outgoing endpoints.
        Declares the expected actor set to the store and applies the
        session's pending epoch restore.
        """
        plan = self.plan

        def origin(node: Node) -> str:
            return (node.node_id if node.kind in ("emitter", "replica")
                    else node.vertex)

        for actor in self.actors:
            node = plan.nodes[actor.actor_name]
            actor.origin_name = origin(node)
            actor.configure_checkpoint(
                session,
                [origin(plan.nodes[link.sender])
                 for link in plan.links_to[node.node_id]],
                actor.replicas if node.kind == "emitter"
                else actor.router.targets)
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

    def _make_operator(self, name: str) -> Operator:
        factory = self._factories.get(name)
        if factory is not None:
            return factory()
        spec = (self.topology.operator(name) if name in self.topology
                else None)
        if spec is not None and spec.operator_class:
            return instantiate_operator(spec.operator_class,
                                        spec.operator_args)
        raise TopologyError(
            f"no factory nor operator_class for operator {name!r}"
        )

    def _new_mailbox(self, node: Node) -> BoundedMailbox:
        mailbox = BoundedMailbox(self.config.mailbox_capacity,
                                 put_timeout=self.config.put_timeout)
        # Injected drop windows count a vertex's arrivals: they sit on
        # the mailbox its input enters by, not inside an ensemble.
        if (self.injector is not None
                and node.kind in ("single", "fused", "emitter")):
            windows = self.injector.schedule(node.vertex).drop_windows
            if windows:
                mailbox.set_drop_windows(windows)
        self.mailboxes[node.node_id] = mailbox
        return mailbox

    def _vertex_factory(self, name: str, clock_key: str) -> OperatorFactory:
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
            return lambda: self._make_operator(name)
        schedule = self.injector.schedule(name)
        if schedule.empty:
            return lambda: self._make_operator(name)
        from repro.faults.injector import FaultyOperator, ItemClock
        session = self.checkpoint_session
        if session is not None and clock_key in session.clocks:
            clock = session.clocks[clock_key]
        else:
            clock = ItemClock()
            if session is not None:
                session.clocks[clock_key] = clock
        return lambda: FaultyOperator(self._make_operator(name), schedule,
                                      clock)

    def _target_for(self, link: Link) -> Target:
        """The delivery endpoint of one link: remote, batched or direct."""
        if link.channel is not None:
            sender = self._remote[link.channel]
            # A replica addressed across shards is a ``Target`` over the
            # channel sender: ``Target.deliver`` puts into it, and its
            # ``put`` answers by batching.
            return (Target(sender.name, sender) if link.kind == "scatter"
                    else sender)
        # (A replica ``scale_vertex`` adds is no plan node; the emitter
        # scattering to it is, and it is of the same vertex.)
        name = self.plan.nodes[link.sender if link.kind == "scatter"
                               else link.receiver].vertex
        mailbox = self.mailboxes[link.receiver]
        if link.batch_size > 1:
            return BatchingTarget(name, mailbox, link.batch_size,
                                  link.flush_timeout)
        return Target(name, mailbox)

    def _register(self, actor: ActorBase, targets: Sequence[Target]) -> None:
        """Add a built actor; the batch buffers among its endpoints
        become its own (see :meth:`_adopt`)."""
        for target in targets:
            buffer = self._adopt(actor, target)
            if buffer is not None:
                actor.batch_targets.append(buffer)
        self.actors.append(actor)

    def _adopt(self, actor: ActorBase,
               target: Target) -> Optional[BatchingTarget]:
        """Make ``target``'s batch buffer, if it has one, ``actor``'s:
        what it loses is accounted to the actor, and a buffer the actor
        delivers to directly charges its flush's wait to the actor (one
        behind a ``Target`` is timed by ``_send`` instead, so no wait is
        counted twice).  Returns the buffer."""
        counters = actor.counters
        vertex = actor.vertex
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

        if isinstance(target, BatchingTarget):
            buffer = target
            buffer.owner = actor
        elif isinstance(target.mailbox, BatchingTarget):
            buffer = target.mailbox
        else:
            return None
        buffer.on_drop = on_drop
        return buffer

    def _build_node(self, node: Node, links: Sequence[Link]) -> ActorBase:
        """Build the actor of one plan node sending over ``links`` —
        the one place either backend constructs an actor."""
        name, vertex = node.node_id, node.vertex
        targets = [self._target_for(link) for link in links]
        common = dict(name=name, mailbox=self.mailboxes.get(name),
                      stop_event=self.stop_event, context=self.context)
        # (An emitter picks among its targets itself and has no router.)
        router = Router(vertex, seed=self.config.seed + _stable_hash(vertex))
        for link, target in zip(links, targets):
            router.add(link.probability, target)
        actor: ActorBase
        if node.kind == "source":
            self.source_actor = actor = SourceActor(
                name=name,
                operator=self._vertex_factory(vertex, name)(),
                router=router,
                stop_event=self.source_stop,
                rate=self.config.source_rate,
                max_items=self.config.max_items,
                context=self.context,
            )
        elif node.kind == "emitter":
            assignment = self.plan.key_assignments.get(vertex)
            actor = EmitterActor(
                vertex=vertex,
                replicas=targets,
                key_of=(None if assignment is None
                        else self._make_operator(vertex).key_of),
                key_assignment=assignment,
                **common,
            )
            if assignment is None:
                # Round-robin ensembles can live-scale; a fixed
                # key-to-replica assignment cannot be resized without
                # re-partitioning state, so partitioned ones stay static.
                self._ensembles[vertex] = _Ensemble(
                    vertex, actor, next_index=len(links), members=[])
        elif node.kind == "collector":
            actor = CollectorActor(vertex=vertex, router=router, **common)
        elif node.kind == "fused":
            fusion = self._fusion_plans[vertex]
            member_factories = {member: self._vertex_factory(member, member)
                                for member in fusion.members}
            members = {member: factory()
                       for member, factory in member_factories.items()}
            loop = self._loop_operator(fusion, members)
            if loop is not None:
                actor = OperatorActor(
                    vertex=vertex, operator=loop, router=router,
                    policy=self.supervisor.policy_for(vertex), **common)
            else:
                actor = MetaOperatorActor(
                    plan=fusion, members=members, router=router,
                    seed=self.config.seed,
                    member_factories=member_factories,
                    strategy=self.supervisor, **common)
            self.fusion_executions[vertex] = "meta" if loop is None else "loop"
        else:  # single | replica
            factory = self._vertex_factory(vertex, name)
            actor = OperatorActor(
                vertex=vertex,
                operator=factory(),
                router=router,
                keep_wrapped=node.kind == "replica",
                operator_factory=factory,
                policy=self.supervisor.policy_for(vertex),
                **common,
            )
            if node.kind == "replica" and vertex in self._ensembles:
                self._ensembles[vertex].members.append(actor)
        self._register(actor, targets)
        return actor

    def _loop_operator(self, fusion: FusionPlan,
                       members: Mapping[str, Operator]) -> Optional[Operator]:
        """The loop-compiled operator of a fused vertex, if admissible.

        ``None`` runs the meta-operator instead: always in ``"meta"``
        mode, and in ``"auto"`` mode for inadmissible plans, for which
        ``"loop"`` mode raises.  Fault injection on any member forces
        the meta-actor regardless (the injected wrapper is deliberately
        impure, and member-level supervision needs the meta path).
        """
        mode = self.config.fusion_mode
        if mode not in ("meta", "loop", "auto"):
            raise TopologyError(
                f"fusion_mode must be 'meta', 'loop' or 'auto', "
                f"got {mode!r}"
            )
        if mode == "meta":
            return None
        from repro.codegen.fuseloop import (
            LoopOperator,
            loop_eligibility_from_operators,
        )
        faulted = []
        if self.injector is not None:
            faulted = [name for name in fusion.members
                       if not self.injector.schedule(name).empty]
        verdict = loop_eligibility_from_operators(fusion, members)
        if not faulted and verdict.eligible:
            return LoopOperator(fusion, members, chain=verdict.chain)
        if mode == "loop":
            reasons = list(verdict.reasons)
            if faulted:
                reasons.append(
                    f"fault plan injects into members {sorted(faulted)}")
            raise TopologyError(
                f"fusion plan {fusion.fused_name!r} cannot be "
                f"loop-compiled: {'; '.join(reasons)}"
            )
        return None

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

    def _retire(self, wait: Callable[[Callable[[float], bool], str],
                                     Optional[str]],
                senders_done: Optional[Callable[[str, float], bool]] = None,
                retired: Optional[Callable[[str], None]] = None,
                ) -> Optional[str]:
        """Retire every actor in the plan's order: close its mailbox,
        let it empty the queue and flush, join it.

        The order is topological, so a mailbox closes only after every
        local sender into it has flushed and exited — nothing in flight
        is lost.  Replicas ``scale_vertex`` spawned retire just before
        their collector.  ``wait(done, what)`` blocks until
        ``done(seconds)`` holds and returns ``None``, or gives up and
        says why, which ends the pass.  ``senders_done(node, seconds)``
        answers for the senders of other shards (whose end of stream no
        order here implies) and ``retired(node)`` hears of each join.
        """
        rank = {nid: index for index, nid in enumerate(self.plan.order)}
        exits = self.plan.exit
        for actor in sorted(self.actors, key=lambda actor: rank.get(
                actor.actor_name, rank[exits[actor.vertex]] - 0.5)):
            name = actor.actor_name

            def joined(seconds: float) -> bool:
                if actor.is_alive():
                    actor.join(seconds)
                return not actor.is_alive()

            outcome = None
            if senders_done is not None:
                outcome = wait(lambda seconds: senders_done(name, seconds),
                               f"the remote senders of {name!r}")
            if outcome is None:
                actor.mailbox.close()
                outcome = wait(joined, f"actor {name!r}")
            if outcome is not None:
                return outcome
            if retired is not None:
                retired(name)
        return None

    def drain(self, timeout: Optional[float] = 30.0,
              senders_done: Optional[Callable[[str, float], bool]] = None,
              retired: Optional[Callable[[str], None]] = None) -> str:
        """End a finite job by the plan's order instead of by a clock.

        Waits for the source to exhaust (``max_items``, or a ``stop``
        of the source), then retires every actor behind it in order —
        see :meth:`_retire` for the two callbacks — so that on
        ``"completed"`` every tuple generated has been processed by
        every actor on its way.  Returns ``"recover"`` as soon as a
        checkpointed crash requests a rollback, ``"failed"`` on an
        escalation, a watchdog verdict or an abort, ``"timeout"`` after
        ``timeout`` seconds (``None`` waits for ever); the latter two
        name what was being waited for in ``failure_reason``.  The
        caller still calls :meth:`stop`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def wait(done: Callable[[float], bool], what: str) -> Optional[str]:
            while True:
                if self.recovery.is_set():
                    return "recover"
                if self.failure.is_set() or self.stop_event.is_set():
                    outcome = "failed"
                elif deadline is not None and time.monotonic() >= deadline:
                    outcome = "timeout"
                elif done(_WATCH_SECONDS):
                    return None
                else:
                    continue
                if self.failure_reason is None:
                    self.failure_reason = f"{outcome} waiting for {what}"
                return outcome

        return (self._retire(wait, senders_done, retired)
                or wait(lambda seconds: True, "the last actor")
                or "completed")

    def stop(self, join_timeout: float = 5.0) -> List[str]:
        """Stop and join every actor; returns the leaked actor names.

        The abort path of :meth:`drain`: generation ends now, and the
        same ordered pass retires the actors for as long as each exits
        promptly — what is queued is still processed, a final partial
        batch still lands in an open mailbox.  The first actor that
        does not (a deadlocked or wedged system) ends the pass; closing
        every mailbox then wakes all blocked senders at once (they
        observe :class:`MailboxClosed` and exit).  Actors still alive
        after the join timeout are reported instead of silently leaking
        their threads.
        """
        self.source_stop.set()
        grace = min(1.0, join_timeout)
        self._retire(lambda done, what: None if done(grace) else what)
        self.stop_event.set()
        for mailbox in self.mailboxes.values():
            mailbox.close()
        for sender in self._remote.values():
            sender.mailbox.close()
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
        emitter = ensemble.emitter
        # Templates of the links a new replica gets: batched as the
        # plan's own scatter and gather links of this vertex.
        scatter = self.plan.links_from[emitter.actor_name][0]
        gather = self.plan.links_to[self.plan.exit[vertex]][0]
        with self._reconfig_lock:
            current = len(ensemble.members)
            delta = replicas - current
            if delta == 0:
                return 0
            retired: List[OperatorActor] = []
            # The emitter's endpoints, one per member and in its order
            # (only the emitter's thread swaps the list, and it is not
            # swapping now: reconfigurations are serialized).
            targets = list(emitter.replicas)
            for _ in range(max(delta, 0)):
                # One more replica node than the plan has, built and
                # linked to the collector exactly as ``wire`` does it.
                node = Node(f"{vertex}#{ensemble.next_index}", "replica",
                            vertex, replica=ensemble.next_index)
                ensemble.next_index += 1
                self._new_mailbox(node)
                actor = self._build_node(node, [replace(
                    gather, sender=node.node_id)])
                target = self._target_for(replace(
                    scatter, receiver=node.node_id))
                self._adopt(emitter, target)
                targets.append(target)
                if self._started:
                    actor.start()
            if delta < 0:
                retired = ensemble.members[replicas:]
                del ensemble.members[replicas:]
            directive = ScaleDirective(targets[:replicas],
                                       targets[replicas:])
            if not self._started:
                # No threads yet: swap on this thread, nothing to drain.
                emitter._on_scale(directive)
            else:
                emitter.mailbox.put((directive, "<scale>"), control=True)
                if not directive.done.wait(timeout):
                    raise TimeoutError(
                        f"emitter of {vertex!r} did not apply the scale "
                        f"directive within {timeout:g}s")
                deadline = time.perf_counter() + timeout
                for actor in retired:
                    actor.join(timeout=max(
                        0.0, deadline - time.perf_counter()))
                    if actor.is_alive():
                        raise TimeoutError(
                            f"retired replica {actor.actor_name!r} did "
                            f"not drain within {timeout:g}s")
                    actor.mailbox.close()
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
        mailbox = self.mailboxes.get(self.plan.entry.get(vertex, ""))
        if mailbox is None:
            raise TopologyError(
                f"vertex {vertex!r} has no entry mailbox (sources "
                f"cannot migrate in-band)")
        ticket = MigrationTicket(vertex, member=member)
        with self._reconfig_lock:
            mailbox.put((ticket, "<migrate>"), control=True)
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
