"""Batched mailboxes: envelope, weighted accounting and edge cases.

The contract under test: batching changes *when* tuples cross an edge
(packed into :class:`repro.runtime.mailbox.Batch` envelopes), never
*whether* or *in what order* — and the mailbox counters keep measuring
tuples, not messages, so throughput and loss accounting stay exact.
"""

import sys
import threading
import time

import pytest

from repro.core.graph import (
    BatchConfig,
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)
from repro.operators.base import Operator
from repro.operators.basic import FieldMap, Identity
from repro.operators.source_sink import CollectingSink, GeneratorSource
from repro.runtime.actors import (
    BatchingTarget,
    EmitterActor,
    OperatorActor,
    RetireNotice,
    Router,
    ScaleDirective,
    SourceActor,
    Target,
)
from repro.runtime.checkpoint import (
    Barrier,
    CheckpointConfig,
    CheckpointSession,
    MigrationTicket,
)
from repro.runtime.mailbox import Batch, BoundedMailbox, MailboxClosed
from repro.runtime.procshard import ChannelSender
from repro.runtime.system import ActorSystem, RuntimeConfig
from repro.testing.differential import (
    canonical,
    run_capture,
    topology_factories,
)
from repro.topology.xmlio import parse_topology, topology_to_xml
from tests.conftest import KeyedCounter


class TestBatchEnvelope:
    def test_len_counts_tuples(self):
        assert len(Batch((1, 2, 3))) == 3

    def test_repr(self):
        assert repr(Batch((1, 2))) == "Batch(2 items)"


class TestBatchConfig:
    def test_defaults(self):
        config = BatchConfig()
        assert config.size == 1
        assert config.flush_timeout > 0

    def test_size_must_be_positive(self):
        with pytest.raises(TopologyError):
            BatchConfig(size=0)

    def test_flush_timeout_must_be_positive(self):
        with pytest.raises(TopologyError):
            BatchConfig(size=2, flush_timeout=0.0)


class TestBatchConfigXml:
    def test_edge_batch_round_trips(self):
        topology = Topology(
            [OperatorSpec(name="a", service_time=0.001),
             OperatorSpec(name="b", service_time=0.001)],
            [Edge("a", "b", batch=BatchConfig(size=8, flush_timeout=0.25))],
        )
        parsed = parse_topology(topology_to_xml(topology))
        edge = parsed.edges[0]
        assert edge.batch is not None
        assert edge.batch.size == 8
        assert edge.batch.flush_timeout == pytest.approx(0.25)

    def test_unbatched_edge_stays_unbatched(self):
        topology = Topology(
            [OperatorSpec(name="a", service_time=0.001),
             OperatorSpec(name="b", service_time=0.001)],
            [Edge("a", "b")],
        )
        assert parse_topology(topology_to_xml(topology)).edges[0].batch is None


class TestWeightedMailboxCounters:
    def test_offered_advances_by_tuple_count(self):
        mailbox = BoundedMailbox(capacity=4)
        mailbox.put(Batch((1, 2, 3)), weight=3)
        mailbox.put("single")
        assert mailbox.offered == 4
        assert mailbox.enqueued == 2  # messages, not tuples

    def test_timed_out_batch_counts_every_tuple_dropped(self):
        mailbox = BoundedMailbox(capacity=1, put_timeout=0.0)
        assert mailbox.put("filler")
        assert mailbox.put(Batch((1, 2, 3, 4, 5)), weight=5) is False
        assert mailbox.dropped == 5

    def test_shed_window_counts_every_tuple(self):
        mailbox = BoundedMailbox(capacity=4)
        mailbox.set_drop_windows([(0, 1)])
        assert mailbox.put(Batch((1, 2, 3)), weight=3)  # shed, not enqueued
        assert mailbox.shed == 3
        assert len(mailbox) == 0

    def test_weight_must_be_positive(self):
        mailbox = BoundedMailbox(capacity=4)
        with pytest.raises(ValueError):
            mailbox.put("x", weight=0)


class TestBatchingTarget:
    def _target(self, capacity=8, size=3, flush_timeout=10.0, on_drop=None,
                put_timeout=5.0):
        mailbox = BoundedMailbox(capacity=capacity, put_timeout=put_timeout)
        target = BatchingTarget("t", mailbox, size=size,
                                flush_timeout=flush_timeout, on_drop=on_drop)
        return mailbox, target

    def test_buffers_until_size_then_flushes_one_message(self):
        mailbox, target = self._target(size=3)
        target.deliver("a", "src")
        target.deliver("b", "src")
        assert len(mailbox) == 0 and target.pending == 2
        target.deliver("c", "src")
        assert target.pending == 0
        message, origin = mailbox.get(timeout=0.1)
        assert isinstance(message, Batch)
        assert message.items == ("a", "b", "c")
        assert origin == "src"

    def test_overdue_partial_batch_flushes(self):
        mailbox, target = self._target(size=100, flush_timeout=0.01)
        target.deliver("a", "src")
        assert not target.overdue()
        time.sleep(0.02)
        assert target.overdue()
        target.flush()
        message, _ = mailbox.get(timeout=0.1)
        assert message == "a"  # a lone tuple travels bare
        assert not target.overdue()  # the deadline restarts with the buffer

    def test_receiver_idle_needs_a_pending_batch_and_an_empty_mailbox(self):
        mailbox, target = self._target(size=100)
        assert not target.receiver_idle()  # nothing to send
        target.deliver("a", "src")
        assert target.receiver_idle()
        mailbox.put("someone else's message")
        assert not target.receiver_idle()  # the receiver has work queued
        queue = mailbox.get_all()
        assert not target.receiver_idle()  # drained but not handled yet
        queue.popleft()
        mailbox.release()
        assert target.receiver_idle()

    def test_dropped_batch_reports_items(self):
        dropped = []
        mailbox, target = self._target(
            capacity=1, size=2, put_timeout=0.0,
            on_drop=lambda items, reason: dropped.append((items, reason)))
        mailbox.put("filler")
        target.deliver("a", "src")
        target.deliver("b", "src")  # flush fails: mailbox full, timeout 0
        assert dropped == [(("a", "b"), "mailbox-timeout")]
        assert mailbox.dropped == 2

    def test_closed_receiver_reports_items_and_raises(self):
        dropped = []
        mailbox, target = self._target(
            size=100,
            on_drop=lambda items, reason: dropped.append((items, reason)))
        target.deliver("a", "src")
        mailbox.close()
        with pytest.raises(MailboxClosed):
            target.flush()
        assert dropped == [(("a",), "receiver-closed")]
        assert target.pending == 0

    def test_weighted_put_from_flush(self):
        mailbox, target = self._target(size=4)
        for item in "abcd":
            target.deliver(item, "src")
        assert mailbox.offered == 4
        assert mailbox.enqueued == 1


def _chain_topology(items=10_000):
    specs = [
        OperatorSpec(name="source", service_time=0.0002,
                     operator_class=(
                         "repro.operators.source_sink.GeneratorSource"),
                     operator_args={"seed": 11}),
        OperatorSpec(name="ident", service_time=0.0002,
                     operator_class="repro.operators.basic.Identity"),
        OperatorSpec(name="sink", service_time=0.0001,
                     operator_class=(
                         "repro.operators.source_sink.CollectingSink"),
                     operator_args={"capacity": items}),
    ]
    return Topology(specs, [Edge("source", "ident"), Edge("ident", "sink")],
                    name="batch-chain")


def _sink_counts(outputs):
    return {name: len(items) for name, items in outputs.items()}


class TestRuntimeBatchingEdgeCases:
    def test_final_partial_batch_flushes_on_source_exhaustion(self):
        # 10 items into batches of 8 leaves a 2-item remainder; with a
        # 30s flush deadline only the source's exhaustion force-flush
        # can send it on its way, so a full sink proves that path.
        topology = _chain_topology()
        outputs = run_capture(
            topology,
            RuntimeConfig(mailbox_capacity=16, max_items=10, seed=1,
                          watchdog=False, batch_size=8,
                          batch_flush_timeout=30.0),
        )
        assert _sink_counts(outputs) == {"sink": 10}

    def test_flush_timeout_drains_idle_paced_source(self):
        # No batch of 16 ever fills at 50 items/s: the source flushes
        # before each paced sleep and every actor downstream when its
        # inbox runs dry, so every tuple reaches the sink (the 5ms flush
        # deadline is never what sends it).
        topology = _chain_topology()
        outputs = run_capture(
            topology,
            RuntimeConfig(mailbox_capacity=16, max_items=12, seed=1,
                          watchdog=False, source_rate=50.0, batch_size=16,
                          batch_flush_timeout=0.005),
        )
        assert _sink_counts(outputs) == {"sink": 12}

    def test_lock_free_idleness_probe_loses_nothing_under_thread_churn(self):
        # The flush decision reads mailbox emptiness without the lock
        # while other threads put and get.  A 10 us switch interval
        # interleaves probe, put and get as finely as the interpreter
        # allows; with the timer out of reach a tuple that missed its
        # flush would never arrive, and one flushed twice would repeat.
        topology = _chain_topology()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            plain, batched = (
                run_capture(topology, RuntimeConfig(
                    mailbox_capacity=4, max_items=3000, seed=1,
                    watchdog=False, **overrides))
                for overrides in ({}, {"batch_size": 8,
                                       "batch_flush_timeout": NEVER}))
        finally:
            sys.setswitchinterval(previous)
        assert _sink_counts(batched) == {"sink": 3000}
        assert batched == plain

    def test_batch_size_one_installs_no_batching_targets(self):
        topology = _chain_topology()
        system = ActorSystem.build(
            topology, topology_factories(topology),
            config=RuntimeConfig(mailbox_capacity=16, max_items=1,
                                 watchdog=False, batch_size=1),
        )
        try:
            assert all(not actor.batch_targets for actor in system.actors)
        finally:
            system.stop()

    def test_per_edge_batch_config_overrides_runtime_default(self):
        topology = _chain_topology()
        batched_edge = Edge("source", "ident",
                            batch=BatchConfig(size=4, flush_timeout=0.05))
        topology = Topology(list(topology.operators),
                            [batched_edge, Edge("ident", "sink")],
                            name=topology.name)
        system = ActorSystem.build(
            topology, topology_factories(topology),
            config=RuntimeConfig(mailbox_capacity=16, max_items=1,
                                 watchdog=False, batch_size=1),
        )
        try:
            source_targets = system.source_actor.batch_targets
            assert [t.size for t in source_targets] == [4]
            downstream = [actor for actor in system.actors
                          if actor.vertex == "ident"]
            assert all(not actor.batch_targets for actor in downstream)
        finally:
            system.stop()


#: A flush deadline no test run can reach: whatever arrives was flushed
#: by the work-conserving rules (or by size), never by the timer.
NEVER = 3600.0
#: Join/receive deadline of the logical-count assertions below.
DEADLINE = 10.0


def _receive(mailbox, tuples, deadline=DEADLINE):
    """Messages dequeued from ``mailbox`` until ``tuples`` data tuples
    arrived (a lone tuple travels bare); a ``TimeoutError`` means a
    tuple was stranded."""
    messages, seen = [], 0
    while seen < tuples:
        payload, _ = mailbox.get(timeout=deadline)
        messages.append(payload)
        if isinstance(payload, Batch):
            seen += len(payload)
        elif not isinstance(payload, Barrier):
            seen += 1
    return messages


class _Recorder:
    """Mailbox-shaped stand-in for a channel pipe: records every put."""

    def __init__(self):
        self.messages = []

    def put(self, message, timeout=-1.0, weight=1, control=False):
        self.messages.append(message[0])
        return True


class _Running:
    """Start an actor; stop and join it on exit (leaks fail the test)."""

    def __init__(self, actor):
        self.actor = actor

    def __enter__(self):
        self.actor.start()
        return self.actor

    def __exit__(self, *exc):
        self.actor.stop_event.set()
        self.actor.mailbox.close()
        self.actor.join(timeout=DEADLINE)
        assert not self.actor.is_alive()


def _identity_actor(inbox, target):
    router = Router("op")
    router.add(1.0, target)
    actor = OperatorActor("op", "op", Identity(), router, inbox,
                          threading.Event())
    actor.batch_targets = [target]
    return actor


class TestWorkConservingFlush:
    """A partial batch never waits while its sender is idle."""

    def test_drained_inbox_delivers_the_partial_batch(self):
        inbox, outbox = BoundedMailbox(16), BoundedMailbox(16)
        target = BatchingTarget("next", outbox, size=100, flush_timeout=NEVER)
        for item in range(5):
            inbox.put((item, "up"))
        with _Running(_identity_actor(inbox, target)):
            messages = _receive(outbox, tuples=5)
        assert [i for m in messages for i in m.items] == [0, 1, 2, 3, 4]

    def test_saturated_inbox_still_fills_whole_batches(self):
        batches, size = 6, 8
        inbox = BoundedMailbox(batches * size)
        outbox = BoundedMailbox(batches * size)
        target = BatchingTarget("next", outbox, size=size,
                                flush_timeout=NEVER)
        for item in range(batches * size):
            inbox.put((item, "up"))
        with _Running(_identity_actor(inbox, target)):
            messages = _receive(outbox, tuples=batches * size)
        assert outbox.enqueued == batches
        assert [len(m) for m in messages] == [size] * batches

    def test_whole_batch_in_whole_batch_out(self):
        inbox, outbox = BoundedMailbox(4), BoundedMailbox(4)
        target = BatchingTarget("next", outbox, size=8, flush_timeout=NEVER)
        inbox.put((Batch(tuple(range(8))), "up"), weight=8)
        with _Running(_identity_actor(inbox, target)):
            messages = _receive(outbox, tuples=8)
        assert [len(m) for m in messages] == [8]

    def test_blocking_source_strands_nothing_at_an_idle_receiver(self):
        class Feed(Operator):
            """Blocks inside ``operator_function`` on an external feed."""

            def __init__(self):
                self.permits = threading.Semaphore(0)

            def operator_function(self, item):
                self.permits.acquire()
                return [item]

        outbox = BoundedMailbox(16)
        target = BatchingTarget("sink", outbox, size=100, flush_timeout=NEVER)
        router = Router("source")
        router.add(1.0, target)
        feed = Feed()
        stop = threading.Event()
        source = SourceActor("source", feed, router, stop)
        source.batch_targets = [target]
        source.start()
        try:
            for item in range(3):
                feed.permits.release()
                # Dequeued before the next permit: the receiver is idle
                # again, so each tuple must leave alone (bare), at once.
                (message,) = _receive(outbox, tuples=1)
                assert message == item
        finally:
            stop.set()
            feed.permits.release()
            source.join(timeout=DEADLINE)
        assert not source.is_alive()

    def test_source_keeps_filling_while_the_receiver_is_busy(self):
        # Nobody consumes: after the first (idle-receiver) flush the
        # mailbox is never empty again, so batches fill to size.
        outbox = BoundedMailbox(64)
        target = BatchingTarget("sink", outbox, size=8, flush_timeout=NEVER)
        router = Router("source")
        router.add(1.0, target)
        source = SourceActor("source", Identity(), router, threading.Event(),
                             max_items=33)
        source.batch_targets = [target]
        source.start()
        source.join(timeout=DEADLINE)
        assert not source.is_alive()
        first, *rest = _receive(outbox, tuples=33)
        assert first == 0  # alone, so bare
        assert [len(m) for m in rest] == [8, 8, 8, 8]

    def test_barrier_never_overtakes_buffered_tuples(self):
        inbox, outbox = BoundedMailbox(16), BoundedMailbox(16)
        target = BatchingTarget("next", outbox, size=100, flush_timeout=NEVER)
        actor = _identity_actor(inbox, target)
        actor.configure_checkpoint(
            CheckpointSession(CheckpointConfig()), ("up",), [target])
        for payload in (0, 1, 2, Barrier(1), 3):
            inbox.put((payload, "up"),
                      control=isinstance(payload, Barrier))
        with _Running(actor):
            messages = _receive(outbox, tuples=4)
        batch, barrier, last = messages
        assert batch.items == (0, 1, 2)
        assert isinstance(barrier, Barrier)
        assert last == 3  # alone, so bare

    def test_control_envelopes_arrive_behind_buffered_tuples(self):
        # A remote replica is addressed through a ChannelSender used as
        # its mailbox: ticket and retire notice must trail the tuples
        # the emitter buffered for it.
        pipe = _Recorder()
        sender = ChannelSender("stage", pipe, 100, NEVER)
        replica = Target("stage", sender)
        inbox = BoundedMailbox(16)
        emitter = EmitterActor("stage.emitter", "stage", [replica], inbox,
                               threading.Event())
        emitter.batch_targets = [sender]
        directive = ScaleDirective([replica], [replica])
        for payload in (0, 1, MigrationTicket("stage"), 2, directive):
            inbox.put((payload, "up"), control=not isinstance(payload, int))
        with _Running(emitter):
            assert directive.done.wait(DEADLINE)
        batch, ticket, last, notice = pipe.messages
        assert batch.items == (0, 1)
        assert isinstance(ticket, MigrationTicket)
        assert last == 2  # alone, so bare
        assert isinstance(notice, RetireNotice)


class TestEnsembleControlEnvelopes:
    def test_control_envelopes_trail_the_tuples_buffered_for_a_replica(self):
        # An intra-shard replica link batches in the emitter's own
        # buffer: the ticket fan-out and the retire notice flush it first.
        outbox, inbox = BoundedMailbox(16), BoundedMailbox(16)
        replica = BatchingTarget("stage", outbox, size=100,
                                 flush_timeout=NEVER)
        emitter = EmitterActor("stage.emitter", "stage", [replica], inbox,
                               threading.Event())
        replica.owner = emitter
        emitter.batch_targets = [replica]
        directive = ScaleDirective([replica], [replica])
        for payload in (0, 1, MigrationTicket("stage"), 2, directive):
            inbox.put((payload, "up"), control=not isinstance(payload, int))
        with _Running(emitter):
            assert directive.done.wait(DEADLINE)
        batch, ticket, last, notice = (
            outbox.get(timeout=DEADLINE)[0] for _ in range(4))
        assert batch.items == (0, 1)
        assert isinstance(ticket, MigrationTicket)
        assert last == 2  # alone, so bare
        assert isinstance(notice, RetireNotice)


class TestClosedReceiverAccounting:
    def test_tuples_lost_at_a_closed_receiver_are_dropped_not_emitted(self):
        topology = _chain_topology()
        system = ActorSystem.build(
            topology, topology_factories(topology),
            config=RuntimeConfig(mailbox_capacity=16, watchdog=False,
                                 batch_size=100, batch_flush_timeout=NEVER),
        )
        ident = next(a for a in system.actors if a.vertex == "ident")
        (target,) = ident.batch_targets
        # Three tuples handled on this thread (the actor never started),
        # so the partial batch is pending when the receiver closes.
        for item in range(3):
            ident.handle(({"sequence": item}, "source"))
        assert target.pending == 3 and ident.counters.emitted == 3
        target.mailbox.close()
        ident._flush_batches(force=True)
        assert ident.counters.emitted == 0
        assert ident.counters.dropped == 3
        letters = system.context.dead_letters
        assert letters.total == 3
        assert {letter.reason for letter in letters.letters} == {
            "receiver-closed"}
        system.stop()


def _ensemble_topology(checkpoint=None):
    """source -> parse x2 -> keyed x2 -> sink."""
    return Topology(
        [OperatorSpec("source", 1e-4),
         OperatorSpec("parse", 1e-4, replication=2),
         OperatorSpec("keyed", 1e-4, state=StateKind.PARTITIONED,
                      replication=2, keys=KeyDistribution.uniform(64)),
         OperatorSpec("sink", 1e-4, state=StateKind.STATEFUL,
                      output_selectivity=0.0)],
        [Edge("source", "parse"), Edge("parse", "keyed"),
         Edge("keyed", "sink")],
        name="batched-ensembles", checkpoint=checkpoint)


def _ensemble_factories(sink):
    return {"source": lambda: GeneratorSource(seed=9),
            "parse": lambda: FieldMap("value"),
            "keyed": KeyedCounter,
            "sink": lambda: sink}


def _per_key(records):
    """key -> its records' ``(sequence, value)`` in sequence order, and
    key -> the ``seen`` counts its replica stamped, in order."""
    rows, seen = {}, {}
    for record in records:
        rows.setdefault(record["key"], []).append(
            (record["sequence"], record["value"]))
        seen.setdefault(record["key"], []).append(record["seen"])
    return ({key: sorted(items) for key, items in rows.items()},
            {key: sorted(counts) for key, counts in seen.items()})


class TestBatchedEnsemble:
    """A batch crosses an emitter, its replicas and a collector whole."""

    ITEMS = 3000

    def _run(self, batch_size, checkpoint=None):
        sink = CollectingSink(capacity=self.ITEMS)
        system = ActorSystem.build(
            _ensemble_topology(), _ensemble_factories(sink),
            config=RuntimeConfig(mailbox_capacity=16, max_items=self.ITEMS,
                                 seed=3, batch_size=batch_size,
                                 batch_flush_timeout=NEVER,
                                 checkpoint=checkpoint))
        system.start()
        try:
            assert system.drain(DEADLINE * 3) == "completed", (
                system.failure_reason)
        finally:
            assert system.stop() == []
        return system, sink

    def test_batch_8_delivers_what_batch_1_delivers(self):
        _, plain = self._run(batch_size=1)
        system, batched = self._run(batch_size=8)
        assert any(actor.batch_targets for actor in system.actors
                   if actor.actor_name == "parse.emitter")
        assert plain.count == batched.count == self.ITEMS
        rows, seen = _per_key(batched.items)
        assert (rows, seen) == _per_key(plain.items)
        # Every key's state counted each of its tuples exactly once.
        assert all(counts == list(range(1, len(counts) + 1))
                   for counts in seen.values())
        # The records themselves, but for the order the collectors
        # merged replicas in, which decides which tuple a key saw first.
        assert (sorted(canonical(record.copy_with(seen=None))
                       for record in batched.items)
                == sorted(canonical(record.copy_with(seen=None))
                          for record in plain.items))
        assert system.context.dead_letters.total == 0

    def test_barriers_cross_a_batched_ensemble_and_every_epoch_completes(
            self):
        interval = 250
        session_config = CheckpointConfig(interval_items=interval)
        system, sink = self._run(batch_size=8, checkpoint=session_config)
        assert sink.count == self.ITEMS
        # Barriers before items 250, 500, ..., 2750: epochs 1 to 11.
        assert (system.checkpoint_session.store.completed
                == self.ITEMS // interval - 1)


class TestBlockedFlush:
    def test_an_emitter_blocked_in_a_flush_shows_where_it_waits(self):
        inbox, outbox = BoundedMailbox(16), BoundedMailbox(1)
        outbox.put(("filler", "other"))  # full: the next put waits
        target = BatchingTarget("stage", outbox, size=4, flush_timeout=NEVER)
        emitter = EmitterActor("stage.emitter", "stage", [target], inbox,
                               threading.Event())
        target.owner = emitter  # as the system wires its own buffers
        emitter.batch_targets = [target]
        inbox.put((Batch((1, 2, 3, 4)), "up"), weight=4)
        wait = 0.3
        with _Running(emitter):
            deadline = time.monotonic() + DEADLINE
            while emitter.blocked_on is None:
                assert time.monotonic() < deadline, "the flush never blocked"
                time.sleep(0.005)
            assert emitter.blocked_on == "stage"
            time.sleep(wait)
            assert outbox.get(timeout=DEADLINE)[0] == "filler"
            batch, origin = outbox.get(timeout=DEADLINE)
        assert batch.items == (1, 2, 3, 4) and origin == "up"
        counters = emitter.counters
        assert emitter.blocked_on is None
        assert (counters.received, counters.processed,
                counters.emitted) == (4, 4, 4)
        assert counters.blocked_time >= wait
        assert counters.busy_time < wait / 3
