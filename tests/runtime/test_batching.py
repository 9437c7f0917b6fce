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

from repro.core.graph import BatchConfig, Edge, OperatorSpec, Topology, TopologyError
from repro.operators.base import Operator
from repro.operators.basic import Identity
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
from repro.testing.differential import run_capture, topology_factories
from repro.topology.xmlio import parse_topology, topology_to_xml


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
        assert message.items == ("a",)
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
    arrived; a ``TimeoutError`` means a tuple was stranded."""
    messages, seen = [], 0
    while seen < tuples:
        payload, _ = mailbox.get(timeout=deadline)
        messages.append(payload)
        if isinstance(payload, Batch):
            seen += len(payload)
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
                # again, so each tuple must leave alone, at once.
                (message,) = _receive(outbox, tuples=1)
                assert message.items == (item,)
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
        sizes = [len(m) for m in _receive(outbox, tuples=33)]
        assert sizes == [1, 8, 8, 8, 8]

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
        assert [m.items for m in messages if isinstance(m, Batch)] == [
            (0, 1, 2), (3,)]
        assert [type(m) for m in messages] == [Batch, Barrier, Batch]

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
        kinds = [type(m) for m in pipe.messages]
        assert kinds == [Batch, MigrationTicket, Batch, RetireNotice]
        assert [m.items for m in pipe.messages if isinstance(m, Batch)] == [
            (0, 1), (2,)]


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
