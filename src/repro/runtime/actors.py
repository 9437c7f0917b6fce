"""Actors executing abstract operators (the Akka layer, Section 4.2).

Actors are OS threads with a bounded blocking mailbox each.  Following
the paper's abstraction layer (Figure 6), actors are *executors* of
operators: a standard operator is executed by one dedicated actor;
replicated operators get one actor per replica plus an *emitter* actor
scheduling the input items and a *collector* actor gathering the
results; fused sub-graphs are executed by a single actor running the
meta-operator loop of Algorithm 4.

Messages are ``(payload, origin)`` pairs; the origin operator name is
stamped into record payloads so multi-input operators (joins) can tell
their streams apart.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.partitioning import stable_key_hash
from repro.operators.base import (
    Operator,
    WrappedItem,
    destination_of,
    unwrap,
)
from repro.runtime.checkpoint import (
    Barrier,
    BarrierAligner,
    CheckpointSession,
    MigrationTicket,
)
from repro.runtime.mailbox import Batch, BoundedMailbox, MailboxClosed
from repro.runtime.metrics import ActorCounters
from repro.runtime.supervision import (
    ActorContext,
    ActorStopped,
    Directive,
    RestartTracker,
    SupervisionEvent,
    SupervisionPolicy,
)

#: How often idle actors poll for shutdown while their mailbox is empty.
_IDLE_POLL_SECONDS = 0.05


class Target:
    """A delivery endpoint: the entry mailbox of a vertex."""

    def __init__(self, name: str, mailbox: BoundedMailbox) -> None:
        self.name = name
        self.mailbox = mailbox

    def deliver(self, payload: Any, origin: str) -> bool:
        """Enqueue ``(payload, origin)``; blocks while full (BAS)."""
        return self.mailbox.put((payload, origin))


class BatchingTarget(Target):
    """A delivery endpoint accumulating tuples into batched messages.

    One instance belongs to exactly one sending actor (the buffer is
    thread-confined): tuples accumulate until ``size`` is reached, then
    the whole batch travels as one mailbox message, amortizing the
    per-message hop cost.  The flush is *work-conserving* — a partial
    batch never waits while its sender is idle: (1) the owning actor
    flushes everything whenever its own mailbox is empty, before it
    blocks; (2) a source, which has no inbox, flushes a partial batch
    when the *receiver's* mailbox is empty and everything before a
    paced sleep.  ``flush_timeout`` bounds the wait under a busy sender
    only, and exhaustion/shutdown force-flush, so batching never strands
    tuples (BAS holds: the batched put still blocks on a full mailbox).

    ``on_drop(items, reason)`` is invoked with the batch's tuples when
    the batched put times out (``"mailbox-timeout"``) or the receiver
    is gone (``"receiver-closed"``), so the sender can account every
    lost tuple (dead letters and counters) instead of one lost message.
    """

    def __init__(self, name: str, mailbox: BoundedMailbox, size: int,
                 flush_timeout: float,
                 on_drop: Optional[
                     Callable[[Tuple[Any, ...], str], None]] = None,
                 ) -> None:
        super().__init__(name, mailbox)
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size}")
        if flush_timeout <= 0.0:
            raise ValueError(
                f"flush timeout must be positive, got {flush_timeout}")
        self.size = size
        self.flush_timeout = flush_timeout
        self.on_drop = on_drop
        self._buffer: List[Any] = []
        self._origin: Optional[str] = None
        self._first_at: Optional[float] = None

    @property
    def pending(self) -> int:
        """Tuples currently buffered (visible to tests and flush logic)."""
        return len(self._buffer)

    def deliver(self, payload: Any, origin: str) -> bool:
        """Buffer ``payload``; deliver the batch when it reaches ``size``.

        Always returns ``True`` from the caller's perspective: delivery
        failures of the batched message are reported asynchronously via
        ``on_drop`` (and the mailbox's weighted ``dropped`` counter), so
        per-tuple send accounting stays exact.
        """
        self._buffer.append(payload)
        self._origin = origin
        if self._first_at is None:
            self._first_at = time.monotonic()
        if len(self._buffer) >= self.size:
            self.flush()
        return True

    def overdue(self) -> bool:
        """Whether the oldest buffered tuple exceeded the flush timeout."""
        return (self._first_at is not None
                and time.monotonic() - self._first_at >= self.flush_timeout)

    def receiver_idle(self) -> bool:
        """Whether a pending batch is all its receiver could work on."""
        return bool(self._buffer) and self.mailbox.empty

    def flush(self) -> bool:
        """Deliver the buffered tuples as one batch message now.

        Returns ``False`` when the batched put timed out; a closed
        receiver raises :class:`MailboxClosed`.  Either way the tuples
        were dropped and reported through ``on_drop``.  An empty buffer
        flushes trivially to ``True``.
        """
        if not self._buffer:
            return True
        items = tuple(self._buffer)
        origin = self._origin or ""
        self._buffer.clear()
        self._first_at = None
        try:
            ok = self.mailbox.put((Batch(items), origin), weight=len(items))
        except MailboxClosed:
            if self.on_drop is not None:
                self.on_drop(items, "receiver-closed")
            raise
        if not ok and self.on_drop is not None:
            self.on_drop(items, "mailbox-timeout")
        return ok


class Router:
    """Routes operator outputs to downstream targets.

    Plain outputs follow the topology's edge probabilities; outputs
    wrapped with a pinned destination go straight to that vertex.
    """

    def __init__(self, origin: str, seed: int = 1) -> None:
        self.origin = origin
        self._entries: List[Tuple[float, Target]] = []
        self._cumulative: List[float] = []
        self._by_name: Dict[str, Target] = {}
        self._rng = random.Random(seed)
        #: Items routed per destination name — the profiler reads these
        #: to estimate the edge probabilities of the topology.
        self.counts: Dict[str, int] = {}

    def add(self, probability: float, target: Target) -> None:
        self._entries.append((probability, target))
        total = (self._cumulative[-1] if self._cumulative else 0.0) + probability
        self._cumulative.append(total)
        self._by_name[target.name] = target
        self.counts.setdefault(target.name, 0)

    @property
    def targets(self) -> List[Target]:
        return [target for _, target in self._entries]

    def resolve(self, output: Any) -> Optional[Target]:
        """The target of one output, or ``None`` for sinks' outputs."""
        target = self._resolve(output)
        if target is not None:
            self.counts[target.name] = self.counts.get(target.name, 0) + 1
        return target

    def _resolve(self, output: Any) -> Optional[Target]:
        pinned = destination_of(output)
        if pinned is not None:
            try:
                return self._by_name[pinned]
            except KeyError:
                raise KeyError(
                    f"operator {self.origin!r} pinned unknown destination "
                    f"{pinned!r}"
                ) from None
        if not self._entries:
            return None
        if len(self._entries) == 1:
            return self._entries[0][1]
        draw = self._rng.random() * self._cumulative[-1]
        for index, bound in enumerate(self._cumulative):
            if draw < bound:
                return self._entries[index][1]
        return self._entries[-1][1]

    def state(self) -> Dict[str, Any]:
        """Snapshot of the routing state (RNG position, edge counts)."""
        return {"rng": self._rng.getstate(), "counts": dict(self.counts)}

    def restore(self, blob: Mapping[str, Any]) -> None:
        """Restore a previously snapshotted routing state in place."""
        self._rng.setstate(blob["rng"])
        self.counts = dict(blob["counts"])


class ScaleDirective:
    """Control envelope asking an emitter to swap its replica list.

    Routed through the emitter's own mailbox so the swap happens on the
    emitter thread, strictly ordered against its round-robin picks: no
    pick can race the resize, and retire notices enqueued to outgoing
    replicas land *behind* every item the emitter already sent them.
    """

    __slots__ = ("replicas", "retired", "done")

    def __init__(self, replicas: Sequence["Target"],
                 retired: Sequence["Target"]) -> None:
        self.replicas = list(replicas)
        self.retired = list(retired)
        self.done = threading.Event()


class RetireNotice:
    """Control envelope telling a drained replica to exit its loop.

    Travels in FIFO order behind all data the emitter routed to the
    replica, so by the time it is dequeued the replica has processed
    everything it will ever receive — retirement loses zero tuples.
    """

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = threading.Event()


class ActorBase(threading.Thread):
    """Common machinery: mailbox loop, counters, graceful shutdown."""

    def __init__(self, name: str, vertex: str, mailbox: BoundedMailbox,
                 stop_event: threading.Event,
                 context: Optional[ActorContext] = None) -> None:
        super().__init__(name=f"actor-{name}", daemon=True)
        self.actor_name = name
        self.vertex = vertex
        self.mailbox = mailbox
        self.stop_event = stop_event
        self.context = context or ActorContext()
        self.counters = ActorCounters()
        #: Vertex this actor is currently blocked on (full downstream
        #: mailbox), read by the stall watchdog.  Written only by this
        #: actor's thread.
        self.blocked_on: Optional[str] = None
        #: Downstream :class:`BatchingTarget` endpoints owned by this
        #: actor; populated by the system during wiring.  The run loop
        #: flushes them whenever its own mailbox runs dry, overdue ones
        #: while busy, and force-flushes on shutdown.
        self.batch_targets: List[BatchingTarget] = []
        #: Origin stamped on outgoing mailbox messages.  Equal to the
        #: vertex except for replicas and emitters, whose per-actor
        #: origins let the checkpoint layer align barriers per channel.
        self.origin_name = vertex
        #: Checkpoint wiring (see :mod:`repro.runtime.checkpoint`);
        #: ``None`` while checkpointing is off — the hot path then pays
        #: one ``is None`` test per message.
        self.checkpoint_session: Optional[CheckpointSession] = None
        self._aligner: Optional[BarrierAligner] = None
        self._barrier_targets: List[Target] = []
        #: Epoch snapshots this actor recorded (tests and reports).
        self.snapshots_taken = 0
        #: Drain-and-migrate cycles this actor completed (tests/metrics).
        self.migrations = 0

    def run(self) -> None:  # pragma: no cover - thread body, exercised E2E
        batched = bool(self.batch_targets)  # chosen once per thread
        inbox = self.mailbox
        try:
            self.on_start()
            while True:
                try:
                    message = inbox.get(timeout=_IDLE_POLL_SECONDS)
                except TimeoutError:
                    if self.stop_event.is_set() or inbox.diverted:
                        break
                    continue
                except MailboxClosed:
                    break
                try:
                    self._dispatch(message)
                    if batched:
                        # Work-conserving: about to block on an empty
                        # inbox, send what is buffered; a busy actor
                        # keeps filling up to the flush deadline.
                        self._flush_batches(force=inbox.empty)
                except ActorStopped:
                    break
        except MailboxClosed:
            pass
        finally:
            self.blocked_on = None
            self._flush_batches(force=True)
            self.on_stop()

    def _dispatch(self, message: Tuple[Any, str]) -> None:
        """Route one mailbox message: defer, align or handle it."""
        payload, origin = message
        aligner = self._aligner
        if aligner is not None and aligner.deferring(origin):
            # A barrier already arrived on this channel for the epoch
            # being aligned: everything behind it belongs to the next
            # epoch and must wait (including the channel's next barrier).
            aligner.defer(message)
            return
        if isinstance(payload, Barrier):
            self._on_barrier(payload, origin)
            return
        if isinstance(payload, MigrationTicket):
            self._on_migrate(payload)
            return
        if isinstance(payload, ScaleDirective):
            self._on_scale(payload)
            return
        if isinstance(payload, RetireNotice):
            self._on_retire(payload)
            return
        if isinstance(payload, Batch):
            for item in payload.items:
                self.handle((item, origin))
        else:
            self.handle(message)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def configure_checkpoint(self, session: CheckpointSession,
                             channels: Sequence[str],
                             targets: Sequence[Target]) -> None:
        """Wire this actor into a checkpoint session (before ``start``).

        ``channels`` are the origins expected to deliver barriers to the
        actor's mailbox; ``targets`` the downstream endpoints barriers
        are forwarded to once aligned.
        """
        self.checkpoint_session = session
        self._aligner = BarrierAligner(channels)
        self._barrier_targets = list(targets)

    def checkpoint_state(self) -> Dict[str, Any]:
        """The actor's epoch snapshot blob (subclasses add their state)."""
        return {}

    def checkpoint_restore(self, blob: Mapping[str, Any]) -> None:
        """Restore a snapshot blob in place (called before ``start``)."""

    def _on_barrier(self, barrier: Barrier, origin: str) -> None:
        aligner = self._aligner
        if aligner is None or not aligner.observe(barrier.epoch, origin):
            return
        session = self.checkpoint_session
        if session is not None:
            session.record(barrier.epoch, self.actor_name,
                           self.checkpoint_state())
            self.snapshots_taken += 1
        self._forward_barrier(barrier)
        # Replay the messages deferred during alignment; they may
        # include the next epoch's first barriers.
        for message in aligner.drain():
            self._dispatch(message)

    def _on_migrate(self, ticket: MigrationTicket) -> None:
        """Perform an in-band drain-and-migrate; acknowledge the ticket.

        The base class has no migratable state: acknowledge and move on
        (collectors/sinks reached by a fanned-out ticket behave this
        way).  Subclasses holding operator state override this.
        """
        ticket.acknowledge()

    def _on_scale(self, directive: ScaleDirective) -> None:
        """Only emitters resize; elsewhere the directive is a no-op."""
        directive.done.set()

    def _on_retire(self, notice: RetireNotice) -> None:
        """Exit the loop: everything before the notice was processed."""
        notice.done.set()
        raise ActorStopped

    def _forward_barrier(self, barrier: Barrier) -> None:
        """Send ``barrier`` to every downstream endpoint, in-band.

        Outgoing batch buffers flush first so the barrier never
        overtakes buffered tuples; the put is a control put (never shed
        by fault windows, not counted as a data arrival).
        """
        for target in self._barrier_targets:
            if isinstance(target, BatchingTarget):
                target.flush()
            target.mailbox.put((barrier, self.origin_name), control=True)

    def _flush_batches(self, force: bool = False,
                       probe: bool = False) -> None:
        """Flush overdue outgoing batches — with ``force`` all of them,
        with ``probe`` also those whose receiver sits idle."""
        for target in self.batch_targets:
            if force or target.overdue() or (probe and target.receiver_idle()):
                try:
                    target.flush()
                except MailboxClosed:
                    pass  # receiver gone; ``on_drop`` accounted the tuples

    def on_start(self) -> None:
        """Subclass hook run in the actor thread before the loop."""

    def on_stop(self) -> None:
        """Subclass hook run in the actor thread after the loop."""

    def handle(self, message: Tuple[Any, str]) -> None:
        raise NotImplementedError

    def _send(self, target: Target, payload: Any) -> None:
        """Deliver downstream, accounting blocked time (backpressure)."""
        started = time.perf_counter()
        self.blocked_on = target.name
        try:
            ok = target.deliver(payload, self.origin_name)
        finally:
            self.blocked_on = None
        elapsed = time.perf_counter() - started
        # Any non-negligible delivery time means the sender was blocked
        # on a full mailbox; the threshold filters out lock overhead.
        if elapsed > 1e-4:
            self.counters.blocked_time += elapsed
        if ok:
            self.counters.emitted += 1
        else:
            # The destination mailbox stayed full past the put timeout:
            # the tuple is gone.  Count it and route it to dead letters
            # so the loss is visible instead of silent.
            self.counters.dropped += 1
            self.context.dead_letters.record(
                self.vertex, unwrap(payload), "mailbox-timeout")

    def _emit_outputs(self, outputs: Sequence[Any], router: Router,
                      keep_wrapped: bool = False) -> None:
        """Route outputs downstream.

        ``keep_wrapped`` preserves :class:`WrappedItem` envelopes, used
        by replicas so pinned destinations survive the trip through the
        collector actor.

        Copy-on-route: when one invocation emits the *same* dict object
        more than once (fan-out via flatmaps or gain > 1), every
        delivery after the first gets a shallow copy.  Without this,
        two downstream actors would mutate one shared payload (origin
        stamping, attribute writes) concurrently.
        """
        seen_ids: Optional[set] = None
        for output in outputs:
            target = router.resolve(output)
            if target is None:
                self.counters.emitted += 1  # result leaves the topology
                continue
            item = output if keep_wrapped else unwrap(output)
            payload = unwrap(item)
            if isinstance(payload, dict):
                if seen_ids is None:
                    seen_ids = set()
                if id(payload) in seen_ids:
                    payload = type(payload)(payload)
                    if isinstance(item, WrappedItem):
                        item = WrappedItem(payload, item.destination)
                    else:
                        item = payload
                else:
                    seen_ids.add(id(payload))
            self._send(target, item)


class OperatorActor(ActorBase):
    """A dedicated actor executing one (replica of an) operator.

    When the operator function raises, the actor consults its
    :class:`SupervisionPolicy` (an Akka supervisor's decider): Resume
    drops the poisonous item, Restart re-instantiates the operator via
    ``operator_factory`` after a backoff (counting restarts inside the
    policy window; exceeding the budget degrades to Stop), Stop diverts
    the mailbox to dead letters and leaves the loop, Escalate
    propagates to the system level.  Every decision is logged and every
    dropped tuple lands in the dead-letter sink.
    """

    def __init__(self, name: str, vertex: str, operator: Operator,
                 router: Router, mailbox: BoundedMailbox,
                 stop_event: threading.Event,
                 keep_wrapped: bool = False,
                 operator_factory: Optional[Callable[[], Operator]] = None,
                 policy: Optional[SupervisionPolicy] = None,
                 context: Optional[ActorContext] = None) -> None:
        super().__init__(name, vertex, mailbox, stop_event, context=context)
        self.operator = operator
        self.router = router
        self.keep_wrapped = keep_wrapped
        self.operator_factory = operator_factory
        self.policy = policy or SupervisionPolicy()
        self._restarts = RestartTracker(self.policy)

    def on_start(self) -> None:
        self.operator.on_start()

    def on_stop(self) -> None:
        self.operator.on_stop()

    def checkpoint_state(self) -> Dict[str, Any]:
        return {"operator": self.operator.snapshot_state(),
                "router": self.router.state()}

    def checkpoint_restore(self, blob: Mapping[str, Any]) -> None:
        self.operator.restore_state(blob["operator"])
        self.router.restore(blob["router"])

    def _on_migrate(self, ticket: MigrationTicket) -> None:
        """Checkpoint the operator, rebuild it fresh, restore, resume.

        Runs in the actor's own thread after the mailbox FIFO delivered
        every item that preceded the ticket — the drain is implicit, so
        no tuple is lost or reordered.  Without a factory there is
        nothing to rebuild from and the migration is refused.
        """
        if self.operator_factory is None:
            ticket.acknowledge(
                f"{self.vertex}: no operator factory, cannot migrate")
            return
        try:
            blob = self.operator.snapshot_state()
            replacement = self.operator_factory()
            replacement.on_start()
            replacement.restore_state(blob)
        except Exception as error:
            ticket.acknowledge(
                f"{self.vertex}: {type(error).__name__}: {error}")
            return
        old = self.operator
        self.operator = replacement
        try:
            old.on_stop()
        except Exception:
            pass  # the old instance is being discarded; best-effort
        self.migrations += 1
        ticket.acknowledge()

    def _log_event(self, directive: Directive, error: BaseException) -> None:
        self.context.supervision.record(SupervisionEvent(
            time=self.context.now(),
            vertex=self.vertex,
            actor=self.actor_name,
            directive=directive.value,
            reason=f"{type(error).__name__}: {error}",
            item_index=self.counters.received - 1,
            restarts=self._restarts.total,
        ))

    def _restart_operator(self) -> bool:
        """Re-instantiate the operator; ``False`` when that too failed."""
        try:
            self.operator.on_stop()
        except Exception:
            pass  # the old instance is broken; teardown is best-effort
        backoff = self.policy.backoff(self._restarts.in_window)
        if backoff > 0.0:
            self.stop_event.wait(backoff)
        try:
            self.operator = self.operator_factory()
            self.operator.on_start()
        except Exception:
            return False
        self.counters.restarts += 1
        return True

    def _on_failure(self, payload: Any, error: BaseException) -> None:
        self.counters.failed += 1
        directive = self.policy.decide(error)
        if (directive is Directive.RESTART
                and self.context.request_recovery is not None):
            # Checkpointed run: instead of a cold per-actor restart,
            # roll the whole system back to the last complete epoch.
            # The crashed item is NOT dead-lettered — the replay from
            # the source offset re-delivers it (effectively once).
            self._log_event(directive, error)
            self.context.request_recovery(
                self.vertex, f"{type(error).__name__}: {error}")
            self._stop_self()
            return
        if directive is Directive.RESTART:
            if self.operator_factory is None:
                # Nothing to rebuild from: degrade to Resume.
                directive = Directive.RESUME
            elif self._restarts.record(self.context.now()):
                directive = self.policy.exhausted_directive()
        self._log_event(directive, error)
        if directive is not Directive.ESCALATE:
            self.context.dead_letters.record(
                self.vertex, payload, f"supervision-{directive.value}")
        if directive is Directive.RESUME:
            return
        if directive is Directive.RESTART:
            if not self._restart_operator():
                self._log_event(Directive.STOP,
                                RuntimeError("restart failed"))
                self._stop_self()
            return
        if directive is Directive.STOP:
            self._stop_self()
            return
        self.context.escalate(
            self.vertex, f"{type(error).__name__}: {error}")
        raise ActorStopped

    def _stop_self(self) -> None:
        if self.policy.divert_on_stop:
            vertex = self.vertex
            sink = self.context.dead_letters

            def _divert(message: Tuple[Any, str]) -> None:
                payload = message[0]
                # Unpack batch envelopes so dead letters stay per-tuple.
                items = payload.items if isinstance(payload, Batch) else (payload,)
                for item in items:
                    sink.record(vertex, item, "stopped-actor")

            self.mailbox.divert(_divert)
        raise ActorStopped

    def handle(self, message: Tuple[Any, str]) -> None:
        payload, origin = message
        self.counters.received += 1
        if isinstance(payload, dict):
            payload["origin"] = origin
        started = time.perf_counter()
        try:
            outputs = self.operator.operator_function(payload)
        except Exception as error:
            self.counters.busy_time += time.perf_counter() - started
            self._on_failure(payload, error)
            return
        finished = time.perf_counter()
        self.counters.busy_time += finished - started
        self.counters.processed += 1
        # Reservoir of raw service-time samples for percentile profiling
        # (bounded so long runs don't grow memory without limit).
        if len(self.counters.service_samples) < 10_000:
            self.counters.service_samples.append(finished - started)
        if not self.router.targets and isinstance(payload, dict):
            born = payload.get("_born")
            if born is not None:
                # This actor is a sink: the record's journey ends here.
                self.counters.latency_sum += finished - born
                self.counters.latency_count += 1
        self._emit_outputs(outputs, self.router, keep_wrapped=self.keep_wrapped)


class SourceActor(ActorBase):
    """The source: generates items at a paced rate, no input mailbox.

    ``rate`` items per second are generated (``None`` = as fast as
    possible); backpressure from downstream naturally slows the source
    because :meth:`Target.deliver` blocks on full mailboxes.
    """

    def __init__(self, name: str, operator: Operator, router: Router,
                 stop_event: threading.Event, rate: Optional[float] = None,
                 max_items: Optional[int] = None,
                 context: Optional[ActorContext] = None) -> None:
        # The source never receives messages; a 1-slot mailbox satisfies
        # the ActorBase interface and stays unused.
        super().__init__(name, name, BoundedMailbox(1), stop_event,
                         context=context)
        self.operator = operator
        self.router = router
        self.rate = rate
        self.max_items = max_items
        #: First sequence number to emit; a checkpoint restore rewinds
        #: this to the recorded epoch offset (source replay).
        self._start_sequence = 0

    def checkpoint_restore(self, blob: Mapping[str, Any]) -> None:
        self.operator.restore_state(blob["operator"])
        self.router.restore(blob["router"])
        self._start_sequence = int(blob["sequence"])

    def _emit_barrier(self, sequence: int) -> None:
        """Snapshot the source and inject the barrier for ``sequence``.

        The snapshot is taken *before* generating the item at
        ``sequence``, so restoring it and replaying from that offset
        regenerates the exact post-barrier stream (the RNG state is part
        of the operator snapshot).
        """
        session = self.checkpoint_session
        assert session is not None
        epoch = sequence // session.config.interval_items
        session.record(epoch, self.actor_name, {
            "operator": self.operator.snapshot_state(),
            "router": self.router.state(),
            "sequence": sequence,
        }, offset=sequence)
        self.snapshots_taken += 1
        self._forward_barrier(Barrier(epoch))

    def run(self) -> None:  # pragma: no cover - thread body, exercised E2E
        next_time = time.perf_counter()
        sequence = self._start_sequence
        try:
            self.operator.on_start()
            while not self.stop_event.is_set():
                # Re-read the rate every iteration: the adaptive layer
                # changes it mid-run (phase-shifted arrival workloads).
                rate = self.rate
                interval = None if rate is None else 1.0 / rate
                if self.max_items is not None and sequence >= self.max_items:
                    break
                if (self.checkpoint_session is not None
                        and sequence > self._start_sequence
                        and sequence % self.checkpoint_session.config
                        .interval_items == 0):
                    self._emit_barrier(sequence)
                if interval is not None:
                    now = time.perf_counter()
                    delay = next_time - now
                    if delay > 0:
                        # An idle source buffers nothing.
                        self._flush_batches(force=True)
                        time.sleep(delay)
                started = time.perf_counter()
                try:
                    outputs = self.operator.operator_function(sequence)
                except Exception as error:
                    # Sources are always resumed: a failed generation
                    # skips one sequence number and the pacing resumes.
                    self.counters.failed += 1
                    self.counters.busy_time += time.perf_counter() - started
                    self.context.supervision.record(SupervisionEvent(
                        time=self.context.now(),
                        vertex=self.vertex,
                        actor=self.actor_name,
                        directive=Directive.RESUME.value,
                        reason=f"{type(error).__name__}: {error}",
                        item_index=sequence,
                    ))
                    sequence += 1
                    if interval is not None:
                        next_time = max(next_time + interval,
                                        time.perf_counter())
                    continue
                born = time.perf_counter()
                self.counters.busy_time += born - started
                self.counters.processed += 1
                sequence += 1
                # Stamp the emission time so sinks can measure the
                # end-to-end latency of each record.
                for output in outputs:
                    payload = unwrap(output)
                    if isinstance(payload, dict):
                        payload["_born"] = born
                self._emit_outputs(outputs, self.router)
                if self.batch_targets:
                    # No inbox to run dry, and ``operator_function`` may
                    # itself sleep on an external feed: the receiver's
                    # empty mailbox is the idleness signal there is.
                    self._flush_batches(probe=True)
                if interval is not None:
                    # No catch-up bursts after backpressure stalls: the
                    # source resumes at its nominal pace.
                    next_time = max(next_time + interval, time.perf_counter())
        except MailboxClosed:
            pass
        finally:
            # An exhausted source (max_items) must not strand its
            # last, incomplete batch.
            self._flush_batches(force=True)
            self.operator.on_stop()


class EmitterActor(ActorBase):
    """Scheduler of input items to the replicas of a parallel operator.

    Stateless operators use circular (round-robin) distribution;
    partitioned-stateful operators hash the partitioning key through the
    key-to-replica assignment computed by the partitioning heuristic.
    """

    def __init__(self, name: str, vertex: str, replicas: Sequence[Target],
                 mailbox: BoundedMailbox, stop_event: threading.Event,
                 key_of: Optional[Callable[[Any], Optional[str]]] = None,
                 key_assignment: Optional[Mapping[str, int]] = None,
                 context: Optional[ActorContext] = None) -> None:
        super().__init__(name, vertex, mailbox, stop_event, context=context)
        if not replicas:
            raise ValueError("emitter needs at least one replica")
        self.replicas = list(replicas)
        self.key_of = key_of
        self.key_assignment = dict(key_assignment or {})
        self._next = 0

    def checkpoint_state(self) -> Dict[str, Any]:
        return {"next": self._next, "keys": dict(self.key_assignment)}

    def checkpoint_restore(self, blob: Mapping[str, Any]) -> None:
        self._next = int(blob["next"])
        self.key_assignment = dict(blob["keys"])

    def _pick(self, payload: Any) -> Target:
        # Snapshot the replica list once: the adaptive controller swaps
        # in a whole new list object when scaling (atomic under the
        # GIL), so indexing a local never races a concurrent resize.
        replicas = self.replicas
        if self.key_of is not None:
            key = self.key_of(payload)
            if key is not None:
                index = self.key_assignment.get(key)
                if index is None:
                    # Builtin hash() is PYTHONHASHSEED-salted: two shard
                    # processes would route the same unseen key to
                    # different replicas.  crc32 is stable everywhere.
                    index = stable_key_hash(key) % len(replicas)
                return replicas[index % len(replicas)]
        index = self._next % len(replicas)
        self._next = (index + 1) % len(replicas)
        return replicas[index]

    def _on_migrate(self, ticket: MigrationTicket) -> None:
        """Fan the ticket out to every replica, in-band behind the data.

        The ticket completes only when all replicas acknowledged; the
        emitter itself holds no operator state, so it contributes no
        part of its own.
        """
        replicas = self.replicas
        ticket.split(len(replicas))
        for target in replicas:
            target.mailbox.put((ticket, self.origin_name), control=True)

    def _on_scale(self, directive: ScaleDirective) -> None:
        """Swap the replica list on this thread, then retire the rest.

        Running here (not on the controller thread) strictly orders the
        swap against round-robin picks, and the retire notices enqueue
        behind every item already routed to the outgoing replicas.
        """
        self.replicas = directive.replicas
        self._next = 0
        for target in directive.retired:
            target.mailbox.put((RetireNotice(), self.origin_name),
                               control=True)
        directive.done.set()

    def handle(self, message: Tuple[Any, str]) -> None:
        payload, origin = message
        self.counters.received += 1
        started = time.perf_counter()
        target = self._pick(payload)
        self.counters.busy_time += time.perf_counter() - started
        self.counters.processed += 1
        delivered = time.perf_counter()
        self.blocked_on = target.name
        try:
            ok = target.mailbox.put((payload, origin))
        finally:
            self.blocked_on = None
        elapsed = time.perf_counter() - delivered
        if elapsed > 1e-4:
            self.counters.blocked_time += elapsed
        if ok:
            self.counters.emitted += 1
        else:
            self.counters.dropped += 1
            self.context.dead_letters.record(
                self.vertex, unwrap(payload), "mailbox-timeout")


class CollectorActor(ActorBase):
    """Collector of the results of a parallel operator's replicas.

    Forwards every collected item downstream using the vertex's original
    routing table, so the replication stays invisible to the rest of the
    topology.
    """

    def __init__(self, name: str, vertex: str, router: Router,
                 mailbox: BoundedMailbox, stop_event: threading.Event,
                 context: Optional[ActorContext] = None) -> None:
        super().__init__(name, vertex, mailbox, stop_event, context=context)
        self.router = router

    def checkpoint_state(self) -> Dict[str, Any]:
        return {"router": self.router.state()}

    def checkpoint_restore(self, blob: Mapping[str, Any]) -> None:
        self.router.restore(blob["router"])

    def handle(self, message: Tuple[Any, str]) -> None:
        payload, origin = message
        self.counters.received += 1
        self.counters.processed += 1
        target = self.router.resolve(payload)
        if target is None:
            self.counters.emitted += 1
            return
        self._send(target, unwrap(payload))
