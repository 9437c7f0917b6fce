"""Aligned-barrier checkpointing and effectively-once recovery.

The supervision layer of PR 2 can *Restart* a crashed operator, but a
cold re-instantiation silently loses every counter, window and join
table the operator had accumulated — a "recovered" pipeline computes
wrong answers.  This module adds the missing primitive: consistent
global snapshots in the style of Chandy-Lamport markers as popularized
by Flink's aligned barriers.

How it works
------------

* The source injects a :class:`Barrier` control envelope into the data
  stream every ``interval_items`` emitted items, snapshotting its own
  state (RNG, replay position) and the emission *offset* right before.
* Barriers travel in-band through the ordinary mailboxes.  A sender
  first flushes its outgoing batch buffers, so a barrier never
  overtakes buffered tuples.  At a multi-input actor a
  :class:`BarrierAligner` holds the epoch open until the barrier
  arrived on *every* input channel, deferring post-barrier messages
  from channels that already delivered theirs — the alignment makes
  the in-flight channel state empty, so snapshots need only operator
  state.
* When an actor's barrier aligns it calls the operator's
  ``snapshot_state()`` hook and records the blob in the shared
  :class:`CheckpointStore`; an epoch is *complete* once every actor of
  the system recorded it.
* On a crash whose directive is Restart, a checkpointed system does
  not rebuild the operator cold: it requests **recovery**.  The
  :func:`run_recoverable` driver tears the system down, restores every
  operator (in place) from the last complete epoch, rewinds the source
  to the recorded offset and replays.  For deterministic topologies
  the sink output of a crash-and-recover run is bit-equal to the
  fault-free run — effectively-once semantics, which the differential
  harness (:mod:`repro.testing.differential`) checks seed by seed.

Fault schedules (:mod:`repro.faults`) are deliberately *not* rolled
back: the session keeps one persistent item clock per operator across
rebuilds, so an injected crash that already fired does not fire again
on the replayed items (otherwise recovery could never make progress).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

from repro.core.graph import CheckpointConfig, Topology, TopologyError

if TYPE_CHECKING:  # imported lazily at runtime to avoid the cycle
    # (repro.runtime.system imports this module for the session type).
    from repro.core.fusion import FusionPlan
    from repro.runtime.supervision import DeadLetterSink, SupervisionLog
    from repro.runtime.system import ActorSystem, RuntimeConfig


class Barrier:
    """An epoch barrier: the Chandy-Lamport marker as a control envelope.

    Barriers flow through the same mailboxes as data (``(payload,
    origin)`` pairs) but are intercepted by the actor run loop before
    they reach any operator function.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Barrier(epoch={self.epoch})"


class MigrationTicket:
    """An in-band drain-and-migrate request (control envelope).

    A ticket enqueued into a vertex's entry mailbox travels *behind*
    every data item already in flight, so by the time the owning actor
    dequeues it the operator has processed everything that preceded the
    migration point — the drain is implicit in mailbox FIFO order.  The
    actor then performs "checkpoint member → move state blob → restore
    → resume" synchronously in its own thread: ``snapshot_state()`` on
    the live operator, a fresh instance from the factory, and
    ``restore_state(blob)`` on the replacement, after which processing
    resumes with zero tuple loss (nothing is dequeued in between).

    For replicated vertices the emitter fans one ticket out to every
    replica; ``parts`` counts the outstanding acknowledgements so
    :meth:`wait` returns only when all members migrated.  ``member``
    optionally names a single meta-operator member to migrate
    (``None`` migrates every member).
    """

    __slots__ = ("vertex", "member", "parts", "errors", "_done", "_lock")

    def __init__(self, vertex: str, member: Optional[str] = None,
                 parts: int = 1) -> None:
        self.vertex = vertex
        self.member = member
        self.parts = parts
        self.errors: List[str] = []
        self._done = threading.Event()
        self._lock = threading.Lock()

    def split(self, parts: int) -> None:
        """Declare the ticket will be acknowledged ``parts`` times."""
        with self._lock:
            self.parts = parts

    def acknowledge(self, error: Optional[str] = None) -> None:
        """One member finished migrating (or failed with ``error``)."""
        with self._lock:
            if error is not None:
                self.errors.append(error)
            self.parts -= 1
            if self.parts <= 0:
                self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every part acknowledged; ``False`` on timeout."""
        return self._done.wait(timeout)

    @property
    def ok(self) -> bool:
        return self._done.is_set() and not self.errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        member = f", member={self.member!r}" if self.member else ""
        return f"MigrationTicket(vertex={self.vertex!r}{member})"


class CheckpointError(RuntimeError):
    """A checkpointing invariant was violated."""


class CheckpointRestoreError(CheckpointError):
    """Restoring an epoch snapshot failed (the epoch is discarded)."""


@dataclass(frozen=True)
class EpochSnapshot:
    """One complete epoch: every actor's state blob plus the source offset."""

    epoch: int
    states: Mapping[str, Any]
    source_offset: Optional[int] = None


class CheckpointStore:
    """Thread-safe store of per-epoch actor snapshots.

    Actors record their blobs as barriers align on their mailboxes (so
    records for one epoch arrive from many threads, roughly in
    topological order).  An epoch *completes* when every expected actor
    recorded it; only the last ``retained`` complete epochs are kept.
    """

    def __init__(self, retained: int = 2) -> None:
        if retained < 1:
            raise CheckpointError(f"retained must be >= 1, got {retained}")
        self.retained = retained
        self._lock = threading.Lock()
        self._expected: frozenset = frozenset()
        self._partial: Dict[int, Dict[str, Any]] = {}
        self._offsets: Dict[int, int] = {}
        self._complete: Dict[int, EpochSnapshot] = {}
        #: Counters surfaced by the bench and the recovery report.
        self.recorded = 0
        self.completed = 0

    def set_expected(self, names: Iterable[str]) -> None:
        """Declare the actor set whose records complete an epoch."""
        with self._lock:
            self._expected = frozenset(names)

    def record(self, epoch: int, actor: str, blob: Any,
               offset: Optional[int] = None) -> None:
        """Record one actor's snapshot of ``epoch``."""
        with self._lock:
            states = self._partial.setdefault(epoch, {})
            states[actor] = blob
            self.recorded += 1
            if offset is not None:
                self._offsets[epoch] = offset
            if self._expected and self._expected <= set(states):
                self._complete[epoch] = EpochSnapshot(
                    epoch=epoch,
                    states=dict(states),
                    source_offset=self._offsets.pop(epoch, None),
                )
                del self._partial[epoch]
                self.completed += 1
                self._prune_locked()

    def _prune_locked(self) -> None:
        while len(self._complete) > self.retained:
            del self._complete[min(self._complete)]

    def latest_complete(self) -> Optional[EpochSnapshot]:
        """The most recent complete epoch, or ``None``."""
        with self._lock:
            if not self._complete:
                return None
            return self._complete[max(self._complete)]

    def complete_epochs(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._complete))

    def discard_above(self, epoch: int) -> None:
        """Drop every (partial or complete) epoch newer than ``epoch``.

        Called before a rollback rebuild: the failed attempt may have
        left half-recorded epochs behind; replay will re-record them.
        """
        with self._lock:
            for stale in [e for e in self._partial if e > epoch]:
                del self._partial[stale]
                self._offsets.pop(stale, None)
            for stale in [e for e in self._complete if e > epoch]:
                del self._complete[stale]

    def discard_epoch(self, epoch: int) -> None:
        """Drop one complete epoch (its restore failed)."""
        with self._lock:
            self._complete.pop(epoch, None)


class BarrierAligner:
    """Barrier alignment over one actor's input channels.

    ``channels`` is the set of origins expected to deliver barriers to
    this mailbox.  Used only from the owning actor's thread.  While an
    epoch is open (a barrier arrived on some but not all channels),
    messages from the already-barriered channels are deferred: they
    belong to the next epoch and must not contaminate the snapshot.
    """

    def __init__(self, channels: Sequence[str]) -> None:
        self.channels = frozenset(channels)
        self._seen: set = set()
        self._epoch: Optional[int] = None
        self._deferred: List[Tuple[Any, str]] = []
        #: Messages deferred over the aligner's lifetime (tests/metrics).
        self.deferred_total = 0

    @property
    def aligning(self) -> bool:
        return self._epoch is not None

    def observe(self, epoch: int, origin: str) -> bool:
        """Account one barrier arrival; ``True`` when the epoch aligned."""
        if len(self.channels) <= 1 or origin not in self.channels:
            return True
        if self._epoch is None:
            self._epoch = epoch
        self._seen.add(origin)
        if self._seen >= self.channels:
            self._epoch = None
            self._seen.clear()
            return True
        return False

    def deferring(self, origin: str) -> bool:
        """Whether messages from ``origin`` must currently be deferred."""
        return self._epoch is not None and origin in self._seen

    def defer(self, message: Tuple[Any, str]) -> None:
        self._deferred.append(message)
        self.deferred_total += 1

    def drain(self) -> List[Tuple[Any, str]]:
        """The deferred messages, in arrival order (clears the buffer)."""
        drained = self._deferred
        self._deferred = []
        return drained


class CheckpointSession:
    """Shared checkpoint services across the rebuilds of one recovery run.

    Holds the store, the restore target applied at the next build, and
    the persistent fault clocks (see the module docstring for why the
    clocks must survive rebuilds).
    """

    def __init__(self, config: CheckpointConfig,
                 store: Optional[CheckpointStore] = None) -> None:
        self.config = config
        self.store = store or CheckpointStore(retained=config.retained)
        #: Persistent :class:`repro.faults.injector.ItemClock` instances
        #: keyed by actor clock key, surviving teardown/rebuild cycles.
        self.clocks: Dict[str, Any] = {}
        #: Epoch snapshot the next ``ActorSystem.build`` restores from.
        self.restore: Optional[EpochSnapshot] = None

    def record(self, epoch: int, actor: str, blob: Any,
               offset: Optional[int] = None) -> None:
        self.store.record(epoch, actor, blob, offset=offset)


@dataclass(frozen=True)
class RecoveryEvent:
    """One rollback: which vertex crashed, which epoch was restored."""

    attempt: int
    vertex: str
    reason: str
    restored_epoch: Optional[int]
    at: float


@dataclass
class RecoveryResult:
    """Outcome of a :func:`run_recoverable` drive.

    ``outcome`` is ``"completed"`` (source exhausted and every actor
    retired), ``"exhausted"`` (more rollbacks than ``max_recoveries``),
    ``"failed"`` (an Escalate or watchdog abort) or ``"timeout"``.
    """

    outcome: str
    system: "ActorSystem"
    session: CheckpointSession
    recoveries: Tuple[RecoveryEvent, ...]
    wall_time: float
    leaked: Tuple[str, ...] = ()

    @property
    def attempts(self) -> int:
        return len(self.recoveries)

    @property
    def supervision(self) -> "SupervisionLog":
        return self.system.context.supervision

    @property
    def dead_letters(self) -> "DeadLetterSink":
        return self.system.context.dead_letters

    @property
    def epochs_completed(self) -> int:
        return self.session.store.completed


def run_recoverable(
    topology: Topology,
    factories: Mapping[str, Any],
    runtime: Optional["RuntimeConfig"] = None,
    fusion_plans: Sequence["FusionPlan"] = (),
    checkpoint: Optional[CheckpointConfig] = None,
    max_recoveries: int = 8,
    timeout: float = 30.0,
) -> RecoveryResult:
    """Run a checkpointed topology to completion, rolling back on crashes.

    The driver loop: build the system (restoring every actor from the
    last complete epoch, if any), :meth:`~repro.runtime.system.
    ActorSystem.drain` it — the source exhausts and every actor retires
    in the plan's order, within ``timeout`` seconds per attempt — and,
    whenever a crash requests recovery instead, stop the system,
    discard epochs newer than the restore target and rebuild.  Returns
    the *final* system (stopped) so callers can read sink contents,
    plus the roll-back trail.

    ``checkpoint`` overrides ``runtime.checkpoint`` which overrides
    ``topology.checkpoint``; one of them must be set.
    """
    from repro.runtime.system import ActorSystem, RuntimeConfig

    runtime = runtime or RuntimeConfig()
    config = checkpoint or runtime.checkpoint or topology.checkpoint
    if config is None:
        raise CheckpointError(
            "run_recoverable needs a CheckpointConfig (topology.checkpoint, "
            "runtime.checkpoint or the checkpoint argument)")
    if not runtime.unsafe:
        from repro.analysis.deploy import deploy_errors

        blocking = deploy_errors(topology, ["SS302", "SS303"])
        if blocking:
            raise TopologyError(
                "deployment-safety gate refused the recoverable run "
                "(RuntimeConfig(unsafe=True) overrides): "
                + "; ".join(d.render() for d in blocking[:3])
            )
    session = CheckpointSession(config)
    recoveries: List[RecoveryEvent] = []
    started = time.monotonic()
    while True:
        restored = session.store.latest_complete()
        if restored is not None:
            session.store.discard_above(restored.epoch)
        session.restore = restored
        try:
            system = ActorSystem.build(topology, factories, config=runtime,
                                       fusion_plans=fusion_plans,
                                       checkpoint=session)
        except CheckpointRestoreError as error:
            # The snapshot itself is unusable: discard it and fall back
            # to the previous complete epoch (or a cold start).  This is
            # the restore-crash supervision path: budgeted like any
            # other rollback so a persistently failing restore_state
            # cannot loop forever.
            assert restored is not None
            session.store.discard_epoch(restored.epoch)
            older = session.store.latest_complete()
            recoveries.append(RecoveryEvent(
                attempt=len(recoveries) + 1,
                vertex=getattr(error, "vertex", "<restore>"),
                reason=f"restore-failed: {error}",
                restored_epoch=older.epoch if older is not None else None,
                at=time.monotonic() - started,
            ))
            if len(recoveries) > max_recoveries:
                raise CheckpointError(
                    f"recovery budget exhausted ({max_recoveries}) while "
                    f"restoring: {error}") from error
            continue
        system.start()
        outcome = system.drain(timeout)
        leaked = system.stop()
        if outcome != "recover":
            return RecoveryResult(
                outcome=outcome,
                system=system,
                session=session,
                recoveries=tuple(recoveries),
                wall_time=time.monotonic() - started,
                leaked=tuple(leaked),
            )
        target = session.store.latest_complete()
        recoveries.append(RecoveryEvent(
            attempt=len(recoveries) + 1,
            vertex=system.recovery_vertex or "<unknown>",
            reason=system.recovery_reason or "crash",
            restored_epoch=target.epoch if target is not None else None,
            at=time.monotonic() - started,
        ))
        if len(recoveries) > max_recoveries:
            return RecoveryResult(
                outcome="exhausted",
                system=system,
                session=session,
                recoveries=tuple(recoveries),
                wall_time=time.monotonic() - started,
                leaked=tuple(leaked),
            )
