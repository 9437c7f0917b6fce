"""Multi-process sharded execution backend — escaping the GIL.

The threaded :class:`~repro.runtime.system.ActorSystem` caps every
CPU-bound topology at one core: Python threads share one interpreter
lock, so the fission plans the solver prices never buy real parallelism
on real hardware.  This module executes the same topology across
*shard* worker processes:

* each shard is one forked OS process owning a partition of the
  topology's operator replicas (chosen by
  :func:`repro.codegen.deployment.shard_placement` from the solver's
  utilization numbers — hot operators get their own shard, cheap glue
  stays co-located with the driver on shard 0);
* inside a shard the existing actor classes run unchanged (threads,
  bounded blocking mailboxes, BAS semantics);
* every physical edge crossing a shard boundary becomes an SPSC channel
  over a ``multiprocessing`` pipe.  The sending actor's side is a
  :class:`ChannelSender` — a :class:`~repro.runtime.actors.
  BatchingTarget` whose "mailbox" writes to the pipe — so PR 6's
  ``Batch`` envelopes amortize pickling exactly like they amortize
  mailbox hops; the receiving side is a reader thread feeding the local
  entry mailbox (OS pipe buffer + blocking mailbox put = cross-process
  backpressure);
* key-hash routing reuses :func:`repro.core.partitioning.
  key_partitioning`: the driver computes one partition plan per
  partitioned vertex and every worker routes with the same
  process-stable assignment (crc32 fallback, never the salted builtin
  ``hash``).

Shutdown is *graceful and topological*, so sharded runs are lossless:
when a physical node's senders have all retired, a per-shard reaper
closes its mailbox, joins the actor (which drains and force-flushes its
outgoing batch buffers), then emits an EOS marker on each outgoing
channel — the retire wave crosses shard boundaries through the
channels themselves, no global coordinator polling required.  A worker
that crashes mid-run surfaces as EOF on its channels (readers treat it
as EOS and flag the channel), and the driver terminates and reaps every
straggler so no zombie processes or orphaned pipes outlive a run.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.graph import StateKind, Topology, TopologyError
from repro.core.partitioning import key_partitioning
from repro.operators.base import Operator, instantiate_operator
from repro.runtime.actors import (
    ActorBase,
    BatchingTarget,
    CollectorActor,
    EmitterActor,
    OperatorActor,
    Router,
    SourceActor,
    Target,
)
from repro.runtime.mailbox import Batch, BoundedMailbox, MailboxClosed
from repro.runtime.metrics import (
    ActorCounters,
    ActorRates,
    CounterSnapshot,
    RuntimeMeasurements,
    rates_between,
)
from repro.runtime.supervision import ActorContext, SupervisorStrategy
from repro.runtime.system import _stable_hash

OperatorFactory = Callable[[], Operator]


@dataclass(frozen=True)
class ProcShardConfig:
    """Configuration of a multi-process sharded run.

    ``batch_size``/``batch_flush_timeout`` batch *intra-shard* edges
    exactly like :class:`~repro.runtime.system.RuntimeConfig`;
    ``channel_batch_size``/``channel_flush_timeout`` size the pickled
    envelopes on cross-shard channels (the dominant cost is per-message
    pickling and pipe syscalls, so channel envelopes default much
    larger).  Both flush work-conservingly: a sender whose own mailbox
    is empty sends its partial envelopes at once, so the two timeouts
    bound the wait only under a continuously busy sender.
    """

    shards: int = 2
    mailbox_capacity: int = 64
    put_timeout: float = 5.0
    source_rate: Optional[float] = None
    max_items: Optional[int] = None
    partition_heuristic: str = "greedy"
    seed: int = 1
    batch_size: int = 1
    batch_flush_timeout: float = 0.05
    channel_batch_size: int = 32
    channel_flush_timeout: float = 0.02
    #: Credit window of a cross-shard channel, in tuples.  The OS pipe
    #: buffer alone (~64KB) would give a crossing edge effectively
    #: unbounded slack — the source would run unthrottled for seconds
    #: before backpressure reached it, breaking the BAS semantics every
    #: measurement assumes.  The receiver acknowledges tuples as they
    #: enter its mailbox; a sender with ``channel_capacity`` unacked
    #: tuples blocks, making a channel behave like a bounded mailbox.
    channel_capacity: int = 64
    utilization_threshold: Optional[float] = None
    #: Seconds a retiring actor may take to drain once its senders are
    #: done (per actor, enforced by the shard reaper).
    join_timeout: float = 10.0
    #: Driver-side deadline for the whole shutdown cascade.
    drain_timeout: float = 60.0
    #: Escape hatch for the SS3xx deployment-safety gates: ``True``
    #: builds even when the static analyzer proves an operator unsafe
    #: to cross a process boundary (see :mod:`repro.analysis.deploy`).
    unsafe: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise TopologyError(f"shards must be >= 1, got {self.shards}")
        if self.channel_capacity < 1:
            raise TopologyError(
                f"channel capacity must be >= 1, "
                f"got {self.channel_capacity}")
        if self.channel_batch_size < 1:
            raise TopologyError(
                f"channel batch size must be >= 1, "
                f"got {self.channel_batch_size}")
        if self.channel_flush_timeout <= 0.0:
            raise TopologyError(
                f"channel flush timeout must be positive, "
                f"got {self.channel_flush_timeout}")


# ----------------------------------------------------------------------
# physical plan: topology vertices -> per-shard actor nodes


@dataclass(frozen=True)
class _Node:
    """One actor of the physical plan (its id is the actor name)."""

    node_id: str
    kind: str  # "source" | "single" | "emitter" | "replica" | "collector"
    vertex: str
    shard: int
    replica: int = 0


@dataclass(frozen=True)
class _Link:
    """One physical edge between two nodes (SPSC: one sending actor)."""

    sender: str
    receiver: str
    kind: str  # "route" | "scatter" | "gather"
    probability: float = 1.0
    channel: Optional[int] = None
    batch_size: int = 1
    flush_timeout: float = 0.05


class _PhysicalPlan:
    """The logical->physical mapping shared by driver and workers."""

    def __init__(self) -> None:
        self.nodes: Dict[str, _Node] = {}
        self.order: List[str] = []
        self.links: List[_Link] = []
        self.links_from: Dict[str, List[_Link]] = {}
        self.links_to: Dict[str, List[_Link]] = {}
        #: node -> retire dependencies: ("node", id) or ("chan", cid)
        self.deps: Dict[str, List[Tuple[str, Any]]] = {}
        self.channel_count = 0
        #: vertex -> key->replica assignment (partitioned vertices only)
        self.key_assignments: Dict[str, Mapping[str, int]] = {}

    def add_node(self, node: _Node) -> None:
        self.nodes[node.node_id] = node
        self.order.append(node.node_id)
        self.links_from[node.node_id] = []
        self.links_to[node.node_id] = []
        self.deps[node.node_id] = []

    def add_link(self, sender: str, receiver: str, kind: str,
                 probability: float = 1.0, batch_size: int = 1,
                 flush_timeout: float = 0.05) -> None:
        channel: Optional[int] = None
        if self.nodes[sender].shard != self.nodes[receiver].shard:
            channel = self.channel_count
            self.channel_count += 1
        link = _Link(sender=sender, receiver=receiver, kind=kind,
                     probability=probability, channel=channel,
                     batch_size=batch_size, flush_timeout=flush_timeout)
        self.links.append(link)
        self.links_from[sender].append(link)
        self.links_to[receiver].append(link)
        self.deps[receiver].append(
            ("chan", channel) if channel is not None else ("node", sender))

    def shard_nodes(self, shard: int) -> List[str]:
        return [nid for nid in self.order if self.nodes[nid].shard == shard]


def _build_plan(topology: Topology, placement: Mapping[str, Tuple[int, ...]],
                config: ProcShardConfig) -> _PhysicalPlan:
    plan = _PhysicalPlan()
    entry: Dict[str, str] = {}
    exits: Dict[str, str] = {}
    for spec in topology.operators:
        name = spec.name
        shards = tuple(placement[name])
        home = shards[0]
        if name == topology.source:
            plan.add_node(_Node(name, "source", name, home))
            entry[name] = exits[name] = name
        elif spec.replication > 1:
            emitter = f"{name}.emitter"
            collector = f"{name}.collector"
            plan.add_node(_Node(emitter, "emitter", name, home))
            for index, shard in enumerate(shards):
                plan.add_node(_Node(f"{name}#{index}", "replica", name,
                                    shard, replica=index))
            plan.add_node(_Node(collector, "collector", name, home))
            for index in range(spec.replication):
                plan.add_link(emitter, f"{name}#{index}", "scatter")
                plan.add_link(f"{name}#{index}", collector, "gather")
            entry[name] = emitter
            exits[name] = collector
            if spec.state is StateKind.PARTITIONED:
                assert spec.keys is not None  # enforced by OperatorSpec
                _, _, partition = key_partitioning(
                    spec.keys, spec.replication,
                    heuristic=config.partition_heuristic)
                plan.key_assignments[name] = dict(partition.assignment)
        else:
            plan.add_node(_Node(name, "single", name, home))
            entry[name] = exits[name] = name
    for spec in topology.operators:
        for edge in topology.out_edges(spec.name):
            if edge.batch is not None:
                size, flush = edge.batch.size, edge.batch.flush_timeout
            else:
                size, flush = config.batch_size, config.batch_flush_timeout
            plan.add_link(exits[edge.source], entry[edge.target], "route",
                          probability=edge.probability, batch_size=size,
                          flush_timeout=flush)
    return plan


# ----------------------------------------------------------------------
# cross-shard channels


_EOS = "eos"
_MSG = "m"


class _ChannelConn:
    """Mailbox-shaped, credit-gated sender end of one channel.

    Only the owning actor's thread writes (SPSC), so no lock is needed.
    The receiver acknowledges tuple weights as they enter its mailbox;
    :meth:`put` blocks once ``capacity`` tuples are unacknowledged, so
    a cross-shard channel backpressures exactly like a bounded local
    mailbox instead of hiding seconds of flow in the OS pipe buffer.
    A broken pipe (crashed receiver shard) surfaces as
    :class:`MailboxClosed`, the same signal a closed local mailbox
    gives, and the sending actor unwinds identically.
    """

    def __init__(self, conn: Any, ack_conn: Any, capacity: int) -> None:
        self._conn = conn
        self._ack = ack_conn
        self._capacity = capacity
        self._in_flight = 0
        self.closed = False

    def _drain_acks(self, block: bool) -> None:
        try:
            while self._ack.poll(None if block else 0):
                self._in_flight -= int(self._ack.recv())
                block = False
        except (EOFError, OSError) as error:
            self.closed = True
            raise MailboxClosed(f"channel peer gone: {error}") from error

    def put(self, message: Any, timeout: float = -1.0, weight: int = 1,
            control: bool = False) -> bool:
        if self.closed:
            raise MailboxClosed("channel closed")
        self._drain_acks(block=False)
        # An envelope heavier than the whole window may go alone on an
        # empty channel; otherwise wait for credit.
        while self._in_flight > 0 and (
                self._in_flight + weight > self._capacity):
            self._drain_acks(block=True)
        try:
            self._conn.send((_MSG, message))
        except (BrokenPipeError, OSError) as error:
            self.closed = True
            raise MailboxClosed(f"channel peer gone: {error}") from error
        self._in_flight += weight
        return True

    @property
    def empty(self) -> bool:
        """The mailbox idleness probe, answered from the credit window:
        everything sent has entered the remote mailbox."""
        if self._in_flight:
            self._drain_acks(block=False)
        return self._in_flight == 0

    def close(self) -> None:
        self.closed = True
        try:
            self._ack.close()
        except OSError:
            pass


class ChannelSender(BatchingTarget):
    """Batched sender side of a cross-shard channel.

    Reuses the whole :class:`BatchingTarget` machinery — accumulation,
    the work-conserving flush of an idle owner, the deadline of a busy
    one, force-flush on actor exit — with the pipe standing in for the
    receiving mailbox, so one pickled ``Batch`` envelope amortizes
    serialization over ``channel_batch_size`` tuples at saturation and
    a lone tuple crosses at once on a quiet stream.

    It is also *mailbox-shaped* (:meth:`put`): an
    :class:`~repro.runtime.actors.EmitterActor` addresses its replicas
    through ``target.mailbox.put``, so a remote replica target is
    ``Target(vertex, ChannelSender(...))`` and scatter traffic batches
    exactly like routed traffic.
    """

    def put(self, message: Any, timeout: float = -1.0, weight: int = 1,
            control: bool = False) -> bool:
        payload, origin = message
        if control or isinstance(payload, Batch):
            # Keep ordering: anything buffered goes first.  Credit is
            # accounted in tuples, so a pre-assembled Batch weighs its
            # item count regardless of what the caller passed.
            self.flush()
            if isinstance(payload, Batch):
                weight = len(payload)
            return self.mailbox.put(message, weight=weight, control=control)
        return self.deliver(payload, origin)


def _read_channel(conn: Any, ack_conn: Any, mailbox: BoundedMailbox,
                  eos: threading.Event, state: Dict[str, Any]) -> None:
    """Reader-thread body: pump one inbound channel into a mailbox.

    Each delivered weight is acknowledged back to the sender *after*
    the (blocking, bounded) mailbox put — that ack path is what carries
    backpressure upstream across the process boundary.  EOF without an
    explicit EOS marker means the sending shard died; the channel still
    terminates (the cascade keeps going) but the run is flagged as
    crashed.
    """
    while True:
        try:
            kind, body = conn.recv()
        except (EOFError, OSError):
            state["crashed"] = True
            break
        if kind == _EOS:
            break
        payload = body[0]
        weight = len(payload) if isinstance(payload, Batch) else 1
        try:
            mailbox.put(body, weight=weight)
        except MailboxClosed:
            break
        try:
            ack_conn.send(weight)
        except (BrokenPipeError, OSError):
            pass  # sender already retired; keep draining toward EOS
    for pipe in (conn, ack_conn):
        try:
            pipe.close()
        except OSError:
            pass
    eos.set()


# ----------------------------------------------------------------------
# shard worker


class _ShardWorker:
    """Everything one worker process runs: actors, readers, reaper."""

    def __init__(self, shard: int, plan: _PhysicalPlan, topology: Topology,
                 make_operator: Callable[[str], Operator],
                 config: ProcShardConfig,
                 channel_conns: Mapping[int, Tuple[Any, ...]]) -> None:
        self.shard = shard
        self.plan = plan
        self.topology = topology
        self.config = config
        self.context = ActorContext()
        self.supervisor = SupervisorStrategy()
        #: Stops only the source (graceful drain follows the topology).
        self.source_stop = threading.Event()
        #: Force-stop for every other actor (abnormal shutdown only).
        self.abort = threading.Event()
        self.error: Optional[str] = None
        self.crashed_channels: List[int] = []
        self.leaked_actors: List[str] = []

        self.local_nodes = plan.shard_nodes(shard)
        local = set(self.local_nodes)
        self.mailboxes: Dict[str, BoundedMailbox] = {}
        self.actors: Dict[str, ActorBase] = {}
        self.exited: Dict[str, threading.Event] = {
            nid: threading.Event() for nid in self.local_nodes}
        self.chan_eos: Dict[int, threading.Event] = {}
        self.chan_state: Dict[int, Dict[str, Any]] = {}
        self.senders: Dict[int, ChannelSender] = {}
        self.send_conns: Dict[int, Any] = {}
        self.readers: List[threading.Thread] = []
        self.reaper = threading.Thread(
            target=self._reap, name=f"shard{shard}-reaper", daemon=True)

        for nid in self.local_nodes:
            if plan.nodes[nid].kind != "source":
                self.mailboxes[nid] = BoundedMailbox(
                    config.mailbox_capacity, put_timeout=config.put_timeout)

        # Sender sides of outgoing channels, reader threads for inbound.
        for link in plan.links:
            if link.channel is None:
                continue
            data_recv, data_send, ack_recv, ack_send = (
                channel_conns[link.channel])
            if link.sender in local:
                vertex = plan.nodes[link.receiver].vertex
                self.send_conns[link.channel] = data_send
                self.senders[link.channel] = ChannelSender(
                    vertex,
                    _ChannelConn(data_send, ack_recv,
                                 config.channel_capacity),
                    config.channel_batch_size,
                    config.channel_flush_timeout)
            if link.receiver in local:
                event = threading.Event()
                state: Dict[str, Any] = {"crashed": False}
                self.chan_eos[link.channel] = event
                self.chan_state[link.channel] = state
                self.readers.append(threading.Thread(
                    target=_read_channel,
                    args=(data_recv, ack_send,
                          self.mailboxes[link.receiver], event, state),
                    name=f"shard{shard}-chan{link.channel}", daemon=True))

        for nid in self.local_nodes:
            self._build_actor(nid, make_operator)

    # -- wiring --------------------------------------------------------

    def _target_for(self, link: _Link) -> Target:
        """The delivery endpoint of one outgoing physical link."""
        if link.channel is not None:
            return self.senders[link.channel]
        vertex = self.plan.nodes[link.receiver].vertex
        mailbox = self.mailboxes[link.receiver]
        if link.kind == "route" and link.batch_size > 1:
            return BatchingTarget(vertex, mailbox, link.batch_size,
                                  link.flush_timeout)
        return Target(vertex, mailbox)

    def _router_for(self, nid: str) -> Tuple[Router, List[BatchingTarget]]:
        node = self.plan.nodes[nid]
        router = Router(node.vertex,
                        seed=self.config.seed + _stable_hash(node.vertex))
        batched: List[BatchingTarget] = []
        for link in self.plan.links_from[nid]:
            target = self._target_for(link)
            router.add(link.probability, target)
            if isinstance(target, BatchingTarget):
                batched.append(target)
        return router, batched

    def _build_actor(self, nid: str,
                     make_operator: Callable[[str], Operator]) -> None:
        node = self.plan.nodes[nid]
        vertex = node.vertex
        if node.kind == "source":
            router, batched = self._router_for(nid)
            actor: ActorBase = SourceActor(
                name=vertex,
                operator=make_operator(vertex),
                router=router,
                stop_event=self.source_stop,
                rate=self.config.source_rate,
                max_items=self.config.max_items,
                context=self.context,
            )
        elif node.kind == "single":
            router, batched = self._router_for(nid)
            factory = (lambda v=vertex: make_operator(v))
            actor = OperatorActor(
                name=vertex,
                vertex=vertex,
                operator=factory(),
                router=router,
                mailbox=self.mailboxes[nid],
                stop_event=self.abort,
                operator_factory=factory,
                policy=self.supervisor.policy_for(vertex),
                context=self.context,
            )
        elif node.kind == "replica":
            router = Router(nid)
            batched = []
            gather = self.plan.links_from[nid][0]
            target = self._target_for(gather)
            router.add(1.0, target)
            if isinstance(target, BatchingTarget):
                batched.append(target)
            factory = (lambda v=vertex: make_operator(v))
            actor = OperatorActor(
                name=nid,
                vertex=vertex,
                operator=factory(),
                router=router,
                mailbox=self.mailboxes[nid],
                stop_event=self.abort,
                keep_wrapped=True,
                operator_factory=factory,
                policy=self.supervisor.policy_for(vertex),
                context=self.context,
            )
        elif node.kind == "emitter":
            batched = []
            replicas: List[Target] = []
            for link in self.plan.links_from[nid]:
                if link.channel is not None:
                    sender = self.senders[link.channel]
                    replicas.append(Target(vertex, sender))
                    batched.append(sender)
                else:
                    replicas.append(
                        Target(vertex, self.mailboxes[link.receiver]))
            key_of = None
            key_assignment = self.plan.key_assignments.get(vertex)
            if key_assignment is not None:
                key_of = make_operator(vertex).key_of
            actor = EmitterActor(
                name=nid,
                vertex=vertex,
                replicas=replicas,
                mailbox=self.mailboxes[nid],
                stop_event=self.abort,
                key_of=key_of,
                key_assignment=key_assignment,
                context=self.context,
            )
        elif node.kind == "collector":
            router, batched = self._router_for(nid)
            actor = CollectorActor(
                name=nid,
                vertex=vertex,
                router=router,
                mailbox=self.mailboxes[nid],
                stop_event=self.abort,
                context=self.context,
            )
        else:  # pragma: no cover - plan builder emits only known kinds
            raise TopologyError(f"unknown physical node kind {node.kind!r}")
        actor.batch_targets = batched
        self.actors[nid] = actor

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        for reader in self.readers:
            reader.start()
        for nid in self.local_nodes:
            self.actors[nid].start()
        self.reaper.start()

    def _wait_dep(self, dep: Tuple[str, Any]) -> bool:
        kind, key = dep
        event = (self.exited[key] if kind == "node"
                 else self.chan_eos[key])
        while not event.wait(0.2):
            if self.abort.is_set():
                return False
        if kind == "chan" and self.chan_state[key]["crashed"]:
            self.crashed_channels.append(key)
        return True

    def _reap(self) -> None:
        """Retire local actors in topological order once senders finish.

        The global topological order of the physical plan guarantees a
        node's mailbox closes only after every sender (local actor or
        remote shard, via channel EOS) has flushed and exited — the
        batched, sharded shutdown stays lossless.
        """
        for nid in self.local_nodes:
            node = self.plan.nodes[nid]
            deps = self.plan.deps[nid]
            if not all(self._wait_dep(dep) for dep in deps):
                self.error = f"shard {self.shard}: aborted retiring {nid}"
                return
            actor = self.actors[nid]
            if node.kind != "source":
                self.mailboxes[nid].close()
                actor.join(timeout=self.config.join_timeout)
            else:
                # The source retires on its own: max_items exhaustion or
                # the driver's stop command.
                while actor.is_alive():
                    actor.join(timeout=0.2)
                    if self.abort.is_set():
                        break
            if actor.is_alive():
                self.leaked_actors.append(actor.actor_name)
                self.error = (f"shard {self.shard}: actor "
                              f"{actor.actor_name!r} wedged during drain")
                return
            self.exited[nid].set()
            for link in self.plan.links_from[nid]:
                if link.channel is None:
                    continue
                try:
                    self.send_conns[link.channel].send((_EOS, nid))
                except (BrokenPipeError, OSError):
                    pass

    def snapshot(self) -> Dict[str, CounterSnapshot]:
        return {nid: actor.counters.snapshot()
                for nid, actor in self.actors.items()}

    def _collect_sinks(self) -> Dict[str, Dict[str, Any]]:
        sinks: Dict[str, Dict[str, Any]] = {}
        for nid, actor in self.actors.items():
            operators: List[Tuple[str, Any]] = []
            operator = getattr(actor, "operator", None)
            if operator is not None:
                operators.append((actor.vertex, operator))
            members = getattr(actor, "members", None)
            if isinstance(members, Mapping):
                operators.extend(members.items())
            for vertex, op in operators:
                items = getattr(op, "items", None)
                count = getattr(op, "count", None)
                if count is None:
                    continue
                entry = sinks.setdefault(vertex, {"items": [], "count": 0})
                entry["count"] += int(count)
                if isinstance(items, list):
                    entry["items"].extend(items)
        return sinks

    def report(self) -> Dict[str, Any]:
        mailbox_dropped = sum(m.dropped for m in self.mailboxes.values())
        mailbox_shed = sum(m.shed for m in self.mailboxes.values())
        return {
            "shard": self.shard,
            "snapshots": self.snapshot(),
            "vertices": {nid: self.plan.nodes[nid].vertex
                         for nid in self.actors},
            "sinks": self._collect_sinks(),
            "mailbox_dropped": mailbox_dropped,
            "mailbox_shed": mailbox_shed,
            "dead_letters": self.context.dead_letters.total,
            "leaked_actors": list(self.leaked_actors),
            "crashed_channels": sorted(set(self.crashed_channels)),
            "error": self.error,
        }

    def shutdown(self) -> None:
        """Force everything down (after the report, or on abort)."""
        self.source_stop.set()
        self.abort.set()
        for mailbox in self.mailboxes.values():
            mailbox.close()
        for sender in self.senders.values():
            sender.mailbox.close()
        for actor in self.actors.values():
            if actor.is_alive():
                actor.join(timeout=1.0)
        for conn in self.send_conns.values():
            try:
                conn.close()
            except OSError:
                pass


def _worker_main(shard: int, plan: _PhysicalPlan, topology: Topology,
                 factories: Mapping[str, OperatorFactory],
                 config: ProcShardConfig,
                 channel_conns: Mapping[int, Tuple[Any, ...]],
                 control: Any,
                 foreign_controls: Sequence[Any]) -> None:
    """Worker-process entry point (fork start method: state inherited)."""
    # Drop inherited descriptors this shard does not own, so a crashed
    # peer surfaces as EOF instead of a silently-open orphaned pipe.
    for conn in foreign_controls:
        conn.close()
    local = {nid for nid in plan.order if plan.nodes[nid].shard == shard}
    for link in plan.links:
        if link.channel is None:
            continue
        data_recv, data_send, ack_recv, ack_send = channel_conns[link.channel]
        if link.receiver not in local:
            data_recv.close()
            ack_send.close()
        if link.sender not in local:
            data_send.close()
            ack_recv.close()

    def make_operator(name: str) -> Operator:
        factory = factories.get(name)
        if factory is not None:
            return factory()
        spec = topology.operator(name) if name in topology else None
        if spec is not None and spec.operator_class:
            return instantiate_operator(spec.operator_class,
                                        spec.operator_args)
        raise TopologyError(
            f"no factory nor operator_class for operator {name!r}")

    worker = _ShardWorker(shard, plan, topology, make_operator, config,
                          channel_conns)
    worker.start()
    try:
        while True:
            try:
                command = control.recv()
            except (EOFError, OSError):
                break
            if command == "snapshot":
                control.send(("snapshot", worker.snapshot()))
            elif command == "stop":
                worker.source_stop.set()
                control.send(("stopped", None))
            elif command == "report":
                worker.reaper.join(timeout=config.drain_timeout)
                if worker.reaper.is_alive() and worker.error is None:
                    worker.error = (f"shard {shard}: drain timed out after "
                                    f"{config.drain_timeout}s")
                control.send(("report", worker.report()))
                break
    finally:
        worker.shutdown()
        try:
            control.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# driver


class ProcShardResult:
    """Measurements of one multi-process sharded run.

    API-compatible with :class:`~repro.runtime.system.RuntimeResult`
    where the conformance harness needs it (``vertices``,
    ``throughput``, ``dropped_messages``), plus the process-specific
    hygiene: leaked workers, crashed channels, per-shard errors.
    """

    def __init__(self, topology: Topology,
                 measurements: RuntimeMeasurements,
                 placement: Mapping[str, Tuple[int, ...]],
                 sink_items: Mapping[str, List[Any]],
                 sink_counts: Mapping[str, int],
                 leaked_actors: Sequence[str] = (),
                 leaked_workers: Sequence[str] = (),
                 crashed_channels: Sequence[int] = (),
                 failure: Optional[str] = None) -> None:
        self.topology = topology
        self.measurements = measurements
        self.vertices = measurements.vertex_rates()
        self.placement = dict(placement)
        self.sink_items = dict(sink_items)
        self.sink_counts = dict(sink_counts)
        self.leaked_actors = tuple(leaked_actors)
        self.leaked_workers = tuple(leaked_workers)
        self.crashed_channels = tuple(crashed_channels)
        self.failure = failure

    @property
    def throughput(self) -> float:
        """Measured topology throughput: source departure rate."""
        return self.vertices[self.topology.source].departure_rate

    @property
    def dropped_messages(self) -> int:
        return self.measurements.total_dropped()

    def departure_rate(self, vertex: str) -> float:
        return self.vertices[vertex].departure_rate


class ProcShardSystem:
    """Driver of a set of shard worker processes executing one topology.

    Mirrors the :class:`~repro.runtime.system.ActorSystem` surface:
    :meth:`build`, :meth:`run` (wall-clock window with warmup) and
    :meth:`run_to_exhaustion` (drain ``max_items`` losslessly, for
    differential bit-equality runs).
    """

    def __init__(self, topology: Topology,
                 factories: Mapping[str, OperatorFactory],
                 config: ProcShardConfig,
                 placement: Mapping[str, Tuple[int, ...]]) -> None:
        self.topology = topology
        self.factories = dict(factories)
        self.config = config
        self.placement = {name: tuple(shards)
                          for name, shards in placement.items()}
        self.plan = _build_plan(topology, self.placement, config)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX only
            raise TopologyError(
                "the process backend requires the fork start method"
            ) from error
        # Per channel: a one-way data pipe and a one-way ack (credit)
        # pipe flowing the other way.
        self._channel_conns: Dict[int, Tuple[Any, Any, Any, Any]] = {}
        for cid in range(self.plan.channel_count):
            data_recv, data_send = self._ctx.Pipe(duplex=False)
            ack_recv, ack_send = self._ctx.Pipe(duplex=False)
            self._channel_conns[cid] = (data_recv, data_send,
                                        ack_recv, ack_send)
        self._controls: List[Tuple[Any, Any]] = [
            self._ctx.Pipe(duplex=True) for _ in range(config.shards)
        ]
        child_conns = [child for _, child in self._controls]
        self.processes = [
            self._ctx.Process(
                target=_worker_main,
                args=(shard, self.plan, topology, self.factories, config,
                      self._channel_conns, child_conns[shard],
                      [c for i, c in enumerate(child_conns) if i != shard]),
                name=f"procshard-{topology.name}-{shard}",
                daemon=True,
            )
            for shard in range(config.shards)
        ]
        self._started = False
        self._finished = False

    @classmethod
    def build(cls, topology: Topology,
              factories: Optional[Mapping[str, OperatorFactory]] = None,
              config: Optional[ProcShardConfig] = None,
              placement: Optional[Mapping[str, Sequence[int]]] = None,
              ) -> "ProcShardSystem":
        """Plan placement (unless given) and wire the worker processes."""
        config = config or ProcShardConfig()
        if placement is None:
            from repro.codegen.deployment import shard_placement

            placement = shard_placement(
                topology, shards=config.shards,
                utilization_threshold=config.utilization_threshold,
            ).as_mapping()
        normalized = {name: tuple(shards)
                      for name, shards in placement.items()}
        for spec in topology.operators:
            shards = normalized.get(spec.name)
            if shards is None or len(shards) != spec.replication:
                raise TopologyError(
                    f"placement for {spec.name!r} must name "
                    f"{spec.replication} shards (rule SS311)")
            if any(not 0 <= s < config.shards for s in shards):
                raise TopologyError(
                    f"placement for {spec.name!r} uses a shard outside "
                    f"[0, {config.shards}) (rule SS311)")
            if len(set(shards)) > 1 and spec.state is StateKind.STATEFUL:
                raise TopologyError(
                    f"placement for {spec.name!r} scatters a stateful "
                    f"operator over shards {sorted(set(shards))} "
                    "(rule SS312)")
        if not config.unsafe:
            from repro.analysis.deploy import deploy_errors

            blocking = deploy_errors(topology, ["SS301", "SS305"])
            if blocking:
                raise TopologyError(
                    "deployment-safety gate refused the process build "
                    "(unsafe=True overrides): "
                    + "; ".join(d.render() for d in blocking[:3])
                )
        return cls(topology, factories or {}, config, normalized)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sharded system already started")
        self._started = True
        for process in self.processes:
            process.start()
        # The workers inherited every channel end they need; the driver
        # keeps only the control pipes.
        for conns in self._channel_conns.values():
            for conn in conns:
                conn.close()
        for _, child in self._controls:
            child.close()

    def _request(self, command: str, timeout: float
                 ) -> Dict[int, Optional[Any]]:
        """Broadcast a control command; gather one reply per worker."""
        replies: Dict[int, Optional[Any]] = {}
        for shard, (parent, _) in enumerate(self._controls):
            try:
                parent.send(command)
            except (BrokenPipeError, OSError):
                replies[shard] = None
        deadline = time.monotonic() + timeout
        for shard, (parent, _) in enumerate(self._controls):
            if shard in replies:
                continue
            remaining = max(deadline - time.monotonic(), 0.01)
            try:
                if parent.poll(remaining):
                    _, body = parent.recv()
                    replies[shard] = body
                else:
                    replies[shard] = None
            except (EOFError, OSError):
                replies[shard] = None
        return replies

    def snapshot(self, timeout: float = 10.0) -> Dict[str, CounterSnapshot]:
        """Merged live counter snapshots across every shard."""
        merged: Dict[str, CounterSnapshot] = {}
        for body in self._request("snapshot", timeout).values():
            if body:
                merged.update(body)
        return merged

    def finish(self, stop: bool = True,
               timeout: Optional[float] = None) -> Dict[int, Any]:
        """Drain, collect per-shard reports and reap every worker.

        With ``stop`` the sources are told to retire first (wall-clock
        runs); without it the call waits for ``max_items`` exhaustion to
        ripple through the EOS cascade (lossless differential runs).
        Always terminates and joins stragglers: no zombies survive.
        """
        if self._finished:
            raise RuntimeError("sharded system already finished")
        self._finished = True
        timeout = timeout if timeout is not None else self.config.drain_timeout
        if stop:
            self._request("stop", timeout=min(timeout, 10.0))
        reports = self._request("report", timeout=timeout)
        self.leaked_workers: List[str] = []
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                self.leaked_workers.append(process.name)
                process.terminate()
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=5.0)
        for parent, _ in self._controls:
            try:
                parent.close()
            except OSError:
                pass
        return reports

    def stop(self) -> List[str]:
        """Abort the run; returns the names of force-killed workers."""
        if not self._finished:
            self.finish(stop=True, timeout=5.0)
        return list(self.leaked_workers)

    # -- measurement ---------------------------------------------------

    def _assemble(self, reports: Dict[int, Any], window: float,
                  before: Optional[Mapping[str, CounterSnapshot]] = None,
                  after: Optional[Mapping[str, CounterSnapshot]] = None,
                  ) -> ProcShardResult:
        zero = ActorCounters().snapshot()
        totals: Dict[str, CounterSnapshot] = {}
        vertices: Dict[str, str] = {}
        sink_items: Dict[str, List[Any]] = {}
        sink_counts: Dict[str, int] = {}
        leaked_actors: List[str] = []
        crashed: List[int] = []
        failures: List[str] = []
        missing = [shard for shard, report in reports.items()
                   if report is None]
        for shard in missing:
            failures.append(f"shard {shard}: no report (worker lost)")
        for report in reports.values():
            if report is None:
                continue
            totals.update(report["snapshots"])
            vertices.update(report["vertices"])
            leaked_actors.extend(report["leaked_actors"])
            crashed.extend(report["crashed_channels"])
            if report["error"]:
                failures.append(report["error"])
            for vertex, entry in report["sinks"].items():
                sink_counts[vertex] = (sink_counts.get(vertex, 0)
                                       + entry["count"])
                sink_items.setdefault(vertex, []).extend(entry["items"])
        if after is None:
            after = totals
        if before is None:
            before = {}
        rates: Dict[str, ActorRates] = {}
        for nid in self.plan.order:
            end = after.get(nid)
            if end is None:
                continue
            rates[nid] = rates_between(
                nid, vertices.get(nid, self.plan.nodes[nid].vertex),
                before.get(nid, zero), end, window)
        measurements = RuntimeMeasurements(duration=window, actors=rates,
                                           totals=totals)
        return ProcShardResult(
            self.topology, measurements, self.placement,
            sink_items, sink_counts,
            leaked_actors=leaked_actors,
            leaked_workers=getattr(self, "leaked_workers", ()),
            crashed_channels=sorted(set(crashed)),
            failure="; ".join(failures) if failures else None,
        )

    def run(self, duration: float,
            warmup: Optional[float] = None) -> ProcShardResult:
        """Run for ``duration`` seconds, measuring after ``warmup``."""
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        if warmup is None:
            warmup = duration * 0.25
        if not 0.0 <= warmup < duration:
            raise ValueError(f"warmup must be in [0, duration), got {warmup}")
        self.start()
        time.sleep(warmup)
        before = self.snapshot()
        started = time.perf_counter()
        time.sleep(duration - warmup)
        after = self.snapshot()
        window = max(time.perf_counter() - started, 1e-9)
        reports = self.finish(stop=True)
        return self._assemble(reports, window, before=before, after=after)

    def run_to_exhaustion(self) -> ProcShardResult:
        """Drain ``config.max_items`` through the EOS cascade, lossless."""
        if self.config.max_items is None:
            raise TopologyError(
                "run_to_exhaustion requires ProcShardConfig.max_items")
        self.start()
        started = time.perf_counter()
        reports = self.finish(stop=False)
        window = max(time.perf_counter() - started, 1e-9)
        return self._assemble(reports, window)


def run_sharded(topology: Topology,
                factories: Mapping[str, OperatorFactory],
                duration: float = 2.0,
                warmup: Optional[float] = None,
                config: Optional[ProcShardConfig] = None,
                placement: Optional[Mapping[str, Sequence[int]]] = None,
                ) -> ProcShardResult:
    """Build, run and measure a topology on the process backend."""
    system = ProcShardSystem.build(topology, factories, config=config,
                                   placement=placement)
    return system.run(duration, warmup=warmup)
