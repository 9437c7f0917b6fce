"""Multi-process sharded backend: losslessness, hygiene, crash cleanup.

The bit-equality and rate-conformance gates live under
``tests/conformance``; this module covers the process-lifecycle
contract: graceful topological shutdown delivers every tuple, teardown
never leaks worker processes or wedged actors (the multi-process analog
of the thread-leak gate on ``ActorSystem.stop``), and a crashed worker
is detected, reported and reaped — no zombies, no orphaned pipes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.core.graph import (
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)
from repro.operators.base import KeyedOperator, Operator
from repro.operators.source_sink import CollectingSink, GeneratorSource
from repro.runtime.actors import EmitterActor, Target
from repro.runtime.mailbox import Batch, BoundedMailbox
from repro.core.physical import build_plan
from repro.runtime.procshard import (
    ChannelSender,
    ProcShardConfig,
    ProcShardSystem,
    _ChannelConn,
    run_sharded,
)
from repro.runtime.system import ActorSystem, RuntimeConfig


class KeyedIdentity(KeyedOperator):
    """Partitioned by the generator's ``key`` field, holds nothing."""

    def __init__(self) -> None:
        super().__init__("key")

    def operator_function(self, item):
        return [item]


def chain_topology(replication: int = 1,
                   keys: KeyDistribution | None = None) -> Topology:
    # The stage is scattered over shards, which SS312 allows only for
    # classes that keep no monolithic state.
    if keys is not None:
        state, stage = StateKind.PARTITIONED, f"{__name__}.KeyedIdentity"
    else:
        state, stage = StateKind.STATELESS, "repro.operators.basic.Identity"
    specs = [
        OperatorSpec(name="source", service_time=2e-4,
                     operator_class=(
                         "repro.operators.source_sink.GeneratorSource"),
                     operator_args={"seed": 7}),
        OperatorSpec(name="stage", service_time=2e-4,
                     replication=replication, state=state, keys=keys,
                     operator_class=stage),
        OperatorSpec(name="sink", service_time=1e-4,
                     operator_class=(
                         "repro.operators.source_sink.CollectingSink"),
                     operator_args={"capacity": 100_000}),
    ]
    edges = [Edge("source", "stage"), Edge("stage", "sink")]
    return Topology(specs, edges, name="procshard-test")


def factories_for(topology: Topology):
    from repro.testing.differential import topology_factories

    return topology_factories(topology)


class ExitingOperator(Operator):
    """Kills its whole worker process after ``fuse`` items (crash test)."""

    def __init__(self, fuse: int) -> None:
        self.fuse = fuse
        self.seen = 0

    def operator_function(self, item):
        self.seen += 1
        if self.seen >= self.fuse:
            os._exit(17)
        return [item]


class TestLosslessShutdown:
    def test_exhaustion_delivers_every_item(self):
        topology = chain_topology()
        config = ProcShardConfig(shards=2, max_items=500, batch_size=4,
                                 channel_batch_size=16, mailbox_capacity=32)
        system = ProcShardSystem.build(
            topology, factories_for(topology), config=config,
            placement={"source": (0,), "stage": (1,), "sink": (0,)})
        result = system.run_to_exhaustion()
        assert result.failure is None
        assert result.sink_counts == {"sink": 500}
        assert result.dropped_messages == 0

    def test_fission_across_shards_is_lossless(self):
        topology = chain_topology(replication=3)
        config = ProcShardConfig(shards=2, max_items=400, batch_size=2,
                                 channel_batch_size=8)
        system = ProcShardSystem.build(
            topology, factories_for(topology), config=config,
            placement={"source": (0,), "stage": (0, 1, 1), "sink": (0,)})
        result = system.run_to_exhaustion()
        assert result.failure is None
        assert result.sink_counts == {"sink": 400}

    def test_partitioned_stage_across_shards(self):
        keys = KeyDistribution({f"k{i}": 1 / 64 for i in range(64)})
        topology = chain_topology(replication=2, keys=keys)
        config = ProcShardConfig(shards=2, max_items=300)
        system = ProcShardSystem.build(
            topology, factories_for(topology), config=config,
            placement={"source": (0,), "stage": (0, 1), "sink": (0,)})
        result = system.run_to_exhaustion()
        assert result.failure is None
        assert result.sink_counts == {"sink": 300}

    def test_exhaustion_requires_max_items(self):
        topology = chain_topology()
        system = ProcShardSystem.build(topology, factories_for(topology),
                                       config=ProcShardConfig(shards=1))
        with pytest.raises(TopologyError, match="max_items"):
            system.run_to_exhaustion()


class TestProcessHygiene:
    def test_no_worker_survives_teardown(self):
        topology = chain_topology()
        config = ProcShardConfig(shards=3, max_items=200)
        system = ProcShardSystem.build(
            topology, factories_for(topology), config=config,
            placement={"source": (0,), "stage": (1,), "sink": (2,)})
        result = system.run_to_exhaustion()
        assert result.failure is None
        assert result.leaked_workers == ()
        assert result.leaked_actors == ()
        for process in system.processes:
            assert not process.is_alive()
            # join() after exit reaps the child, so no zombie remains.
            assert process.exitcode is not None

    def test_wall_clock_run_reaps_workers(self):
        topology = chain_topology()
        config = ProcShardConfig(shards=2, source_rate=300.0)
        result = run_sharded(topology, factories_for(topology),
                             duration=0.8, warmup=0.2, config=config)
        assert result.failure is None
        assert result.leaked_workers == ()
        assert result.dropped_messages == 0

    def test_crashed_worker_is_detected_and_reaped(self):
        topology = chain_topology()
        factories = {
            "source": lambda: GeneratorSource(seed=1),
            "stage": lambda: ExitingOperator(fuse=50),
            "sink": lambda: CollectingSink(capacity=100_000),
        }
        config = ProcShardConfig(shards=2, max_items=400,
                                 drain_timeout=8.0)
        system = ProcShardSystem.build(
            topology, factories, config=config,
            placement={"source": (0,), "stage": (1,), "sink": (0,)})
        result = system.run_to_exhaustion()
        # The run must fail loudly: the dead shard never reports, and
        # its channels EOF without the EOS marker.
        assert result.failure is not None
        assert result.crashed_channels or "no report" in result.failure
        # ... but cleanly: every worker is terminated and reaped.
        for process in system.processes:
            assert not process.is_alive()

    def test_double_start_rejected(self):
        topology = chain_topology()
        system = ProcShardSystem.build(topology, factories_for(topology),
                                       config=ProcShardConfig(
                                           shards=1, max_items=50))
        result = system.run_to_exhaustion()
        assert result.failure is None
        with pytest.raises(RuntimeError, match="already started"):
            system.start()


class TestWorkConservingChannelFlush:
    """A channel batch never waits on its timer while its sender idles."""

    #: A flush deadline no test run can reach.
    NEVER = 3600.0

    def _channel(self, capacity=64):
        data_recv, data_send = multiprocessing.Pipe(duplex=False)
        ack_recv, ack_send = multiprocessing.Pipe(duplex=False)
        return _ChannelConn(data_send, ack_recv, capacity), data_recv, ack_send

    def test_credit_window_answers_the_idleness_probe(self):
        conn, data_recv, ack_send = self._channel()
        assert conn.empty
        conn.put((Batch((1, 2, 3)), "up"), weight=3)
        assert not conn.empty  # three tuples not yet in the remote mailbox
        data_recv.recv()
        ack_send.send(3)
        assert conn.empty

    def test_idle_emitter_sends_a_one_tuple_channel_batch(self):
        conn, data_recv, _ = self._channel()
        sender = ChannelSender("stage", conn, 32, self.NEVER)
        inbox = BoundedMailbox(8)
        emitter = EmitterActor("stage.emitter", "stage",
                               [Target("stage", sender)], inbox,
                               threading.Event())
        emitter.batch_targets = [sender]
        emitter.start()
        try:
            inbox.put(("tuple", "source"))
            assert data_recv.poll(10.0), "the tuple was stranded"
            _, (payload, origin) = data_recv.recv()
            assert isinstance(payload, Batch) and payload.items == ("tuple",)
            assert origin == "source"
        finally:
            inbox.close()
            emitter.join(timeout=10.0)
        assert not emitter.is_alive()

    def test_paced_stream_crosses_shards_before_any_timer_or_shutdown(self):
        # 50 tuples/s into channel batches of 1000 with an hour's flush
        # deadline: only the work-conserving flush can deliver while the
        # source is still running (shutdown would force-flush anyway).
        topology = chain_topology(replication=2)
        config = ProcShardConfig(shards=2, source_rate=50.0,
                                 channel_batch_size=1000,
                                 channel_flush_timeout=self.NEVER,
                                 batch_size=8,
                                 batch_flush_timeout=self.NEVER)
        system = ProcShardSystem.build(
            topology, factories_for(topology), config=config,
            placement={"source": (0,), "stage": (0, 1), "sink": (1,)})
        system.start()
        try:
            deadline = time.monotonic() + 20.0
            received = 0
            while received < 5 and time.monotonic() < deadline:
                time.sleep(0.05)
                received = system.snapshot()["sink"].received
            assert received >= 5, "tuples stranded in partial batches"
        finally:
            system.finish(stop=True)
        assert system.leaked_workers == []


class TestShardDropAccounting:
    """A worker is an ``ActorSystem`` over its shard: a batch lost on a
    channel is accounted like a batch lost on a local mailbox."""

    def test_batch_lost_on_a_dead_channel_is_accounted_to_its_owner(self):
        topology = chain_topology()
        plan = build_plan(
            topology, {"source": (0,), "stage": (1,), "sink": (1,)},
            batch_size=1, batch_flush_timeout=0.05,
            partition_heuristic="greedy")
        (link,) = [l for l in plan.links if l.channel is not None]
        data_recv, data_send = multiprocessing.Pipe(duplex=False)
        ack_recv, _ack_send = multiprocessing.Pipe(duplex=False)
        sender = ChannelSender("stage", _ChannelConn(data_send, ack_recv, 64),
                               32, 3600.0)
        system = ActorSystem(topology, RuntimeConfig(watchdog=False))
        system.wire(plan, factories_for(topology), shard=0,
                    remote={link.channel: sender})
        (source,) = system.actors
        assert source.batch_targets == [sender]
        for index in range(5):
            source._send(sender, {"index": index})
        assert (source.counters.emitted, source.counters.dropped) == (5, 0)
        data_recv.close()  # the receiving shard is gone
        source._flush_batches(force=True)
        assert (source.counters.emitted, source.counters.dropped) == (0, 5)
        letters = system.context.dead_letters.letters
        assert [(l.vertex, l.reason, l.payload["index"]) for l in letters] \
            == [("source", "receiver-closed", index) for index in range(5)]


class TestPlacementValidation:
    def test_missing_operator_rejected(self):
        topology = chain_topology()
        with pytest.raises(TopologyError, match="placement"):
            ProcShardSystem.build(
                topology, factories_for(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "sink": (0,)})

    def test_wrong_replica_count_rejected(self):
        topology = chain_topology(replication=3)
        with pytest.raises(TopologyError, match="3 shards"):
            ProcShardSystem.build(
                topology, factories_for(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "stage": (0, 1),
                           "sink": (0,)})

    def test_out_of_range_shard_rejected(self):
        topology = chain_topology()
        with pytest.raises(TopologyError, match="outside"):
            ProcShardSystem.build(
                topology, factories_for(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "stage": (5,), "sink": (0,)})

    def test_config_validation(self):
        with pytest.raises(TopologyError, match="shards"):
            ProcShardConfig(shards=0)
        with pytest.raises(TopologyError, match="channel capacity"):
            ProcShardConfig(channel_capacity=0)
        with pytest.raises(TopologyError, match="channel batch"):
            ProcShardConfig(channel_batch_size=0)
        with pytest.raises(TopologyError, match="flush timeout"):
            ProcShardConfig(channel_flush_timeout=0.0)
