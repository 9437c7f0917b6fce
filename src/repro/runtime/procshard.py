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
* the driver builds the one :class:`~repro.core.physical.PhysicalPlan`
  under that placement and a worker is an
  :class:`~repro.runtime.system.ActorSystem` wired over its shard's
  nodes — the same actors, supervision, dead letters and drop
  accounting as the threaded backend, by the same code;
* every link of the plan crossing a shard boundary becomes an SPSC
  channel over a ``multiprocessing`` pipe.  The sending actor's side is
  a :class:`ChannelSender` — a :class:`~repro.runtime.actors.
  BatchingTarget` whose "mailbox" writes to the pipe — so PR 6's
  ``Batch`` envelopes amortize pickling exactly like they amortize
  mailbox hops; the receiving side is a reader thread feeding the local
  mailbox (OS pipe buffer + blocking mailbox put = cross-process
  backpressure);
* key-hash routing reads the plan's key assignments, so every worker
  routes with the same process-stable assignment (crc32 fallback, never
  the salted builtin ``hash``).

Shutdown is *graceful and topological*, so sharded runs are lossless:
each worker ``drain``s its system in the plan's global order — a node
fed from other shards first waits for their EOS markers, and every node
that has flushed and exited relays EOS on its outgoing channels — so
the retire wave crosses shard boundaries through the channels
themselves, no global coordinator polling required.  A worker that
crashes mid-run surfaces as EOF on its channels (readers treat it as
EOS and flag the channel), and the driver terminates and reaps every
straggler so no zombie processes or orphaned pipes outlive a run.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
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

from repro.core.graph import Topology, TopologyError
from repro.core.physical import PhysicalPlan, build_plan
from repro.operators.base import Operator
from repro.runtime.actors import BatchingTarget
from repro.runtime.mailbox import Batch, BoundedMailbox, MailboxClosed
from repro.runtime.metrics import (
    ActorCounters,
    ActorRates,
    CounterSnapshot,
    RuntimeMeasurements,
    rates_between,
)
from repro.runtime.system import ActorSystem, RuntimeConfig

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
    #: Deadline of the whole shutdown cascade: a worker's ``drain``,
    #: and the driver's wait for its report.
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

    It is also *mailbox-shaped* (:meth:`put`): a remote replica is
    ``Target(vertex, ChannelSender(...))``, an
    :class:`~repro.runtime.actors.EmitterActor` delivers to it through
    ``Target.deliver``, whose put this class answers by batching, so
    scatter traffic batches exactly like routed traffic; a control put
    flushes the buffer first.
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
    """What one worker process runs: an :class:`ActorSystem` over its
    shard of the plan, plus the channel ends that tie it to the rest."""

    def __init__(self, shard: int, plan: PhysicalPlan, topology: Topology,
                 factories: Mapping[str, OperatorFactory],
                 config: ProcShardConfig,
                 channel_conns: Mapping[int, Tuple[Any, ...]]) -> None:
        self.shard = shard
        self.config = config
        self.error: Optional[str] = None
        self.crashed_channels: List[int] = []
        self.leaked_actors: List[str] = []
        # No stall watchdog per shard: actors blocked on a channel wait
        # for another process, which local counters cannot tell from a
        # deadlock.  Batching and partitioning came with the plan.
        self.system = ActorSystem(topology, RuntimeConfig(
            mailbox_capacity=config.mailbox_capacity,
            put_timeout=config.put_timeout,
            source_rate=config.source_rate,
            max_items=config.max_items,
            seed=config.seed,
            watchdog=False,
        ))
        self.chan_eos: Dict[int, threading.Event] = {}
        self.chan_state: Dict[int, Dict[str, Any]] = {}
        self.send_conns: Dict[int, Any] = {}
        self.readers: List[threading.Thread] = []

        # Sender sides of outgoing channels first: wiring hands them to
        # the actors that own them.
        crossing = [link for link in plan.links if link.channel is not None]
        senders: Dict[int, ChannelSender] = {}
        for link in crossing:
            if plan.nodes[link.sender].shard == shard:
                _, data_send, ack_recv, _ = channel_conns[link.channel]
                self.send_conns[link.channel] = data_send
                senders[link.channel] = ChannelSender(
                    plan.nodes[link.receiver].vertex,
                    _ChannelConn(data_send, ack_recv,
                                 config.channel_capacity),
                    config.channel_batch_size,
                    config.channel_flush_timeout)
        self.system.wire(plan, factories, shard=shard, remote=senders)
        for link in crossing:
            if plan.nodes[link.receiver].shard == shard:
                data_recv, _, _, ack_send = channel_conns[link.channel]
                event = self.chan_eos[link.channel] = threading.Event()
                state = self.chan_state[link.channel] = {"crashed": False}
                self.readers.append(threading.Thread(
                    target=_read_channel,
                    args=(data_recv, ack_send,
                          self.system.mailboxes[link.receiver], event, state),
                    name=f"shard{shard}-chan{link.channel}", daemon=True))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        for reader in self.readers:
            reader.start()
        self.system.start()

    def _senders_done(self, node: str, seconds: float) -> bool:
        """Whether every channel into ``node`` has ended (EOS, or EOF of
        a dead shard, which is flagged)."""
        for link in self.system.plan.links_to[node]:
            if link.channel is None:
                continue
            if not self.chan_eos[link.channel].wait(seconds):
                return False
            if self.chan_state[link.channel]["crashed"]:
                self.crashed_channels.append(link.channel)
        return True

    def _relay_eos(self, node: str) -> None:
        """``node`` has flushed and exited: end its outgoing channels."""
        for link in self.system.plan.links_from[node]:
            if link.channel is not None:
                try:
                    self.send_conns[link.channel].send((_EOS, node))
                except (BrokenPipeError, OSError):
                    pass

    def finish(self) -> Dict[str, Any]:
        """The shard's part of the shutdown cascade, then its report.

        ``drain`` retires the local actors in the plan's global order;
        a node fed from other shards waits for their EOS first and each
        retired node relays EOS onward, so the wave crosses the process
        boundaries through the channels themselves and a mailbox closes
        only after every sender, local or remote, has flushed.
        """
        outcome = self.system.drain(self.config.drain_timeout,
                                    self._senders_done, self._relay_eos)
        if outcome != "completed":
            self.error = (f"shard {self.shard}: drain {outcome}: "
                          f"{self.system.failure_reason}")
        self.leaked_actors = self.system.stop(join_timeout=1.0)
        return self.report()

    def _collect_sinks(self) -> Dict[str, Dict[str, Any]]:
        sinks: Dict[str, Dict[str, Any]] = {}
        for actor in self.system.actors:
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
        system = self.system
        mailboxes = system.mailboxes.values()
        return {
            "shard": self.shard,
            "snapshots": system.snapshot(),
            "vertices": {actor.actor_name: actor.vertex
                         for actor in system.actors},
            "sinks": self._collect_sinks(),
            "mailbox_dropped": sum(m.dropped for m in mailboxes),
            "mailbox_shed": sum(m.shed for m in mailboxes),
            "dead_letters": system.context.dead_letters.total,
            "leaked_actors": list(self.leaked_actors),
            "crashed_channels": sorted(set(self.crashed_channels)),
            "error": self.error,
        }

    def shutdown(self) -> None:
        """Force everything down (after the report, or on abort)."""
        self.system.stop(join_timeout=1.0)
        for conn in self.send_conns.values():
            try:
                conn.close()
            except OSError:
                pass


def _worker_main(shard: int, plan: PhysicalPlan, topology: Topology,
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
    for link in plan.links:
        if link.channel is None:
            continue
        data_recv, data_send, ack_recv, ack_send = channel_conns[link.channel]
        if plan.nodes[link.receiver].shard != shard:
            data_recv.close()
            ack_send.close()
        if plan.nodes[link.sender].shard != shard:
            data_send.close()
            ack_recv.close()

    worker = _ShardWorker(shard, plan, topology, factories, config,
                          channel_conns)
    worker.start()
    try:
        while True:
            try:
                command = control.recv()
            except (EOFError, OSError):
                break
            if command == "snapshot":
                control.send(("snapshot", worker.system.snapshot()))
            elif command == "stop":
                worker.system.source_stop.set()
                control.send(("stopped", None))
            elif command == "report":
                control.send(("report", worker.finish()))
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
        self.plan = build_plan(
            topology, self.placement, batch_size=config.batch_size,
            batch_flush_timeout=config.batch_flush_timeout,
            partition_heuristic=config.partition_heuristic)
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
        from repro.analysis.deploy import deploy_errors, verify_plan

        refused = [d for d in verify_plan(
            topology, backend="process", placement=placement,
            shards=config.shards).errors if d.rule in ("SS311", "SS312")]
        if refused:
            raise TopologyError(
                "placement refused: "
                + "; ".join(d.render() for d in refused[:3]))
        if not config.unsafe:
            blocking = deploy_errors(topology, ["SS301", "SS305"])
            if blocking:
                raise TopologyError(
                    "deployment-safety gate refused the process build "
                    "(unsafe=True overrides): "
                    + "; ".join(d.render() for d in blocking[:3])
                )
        return cls(topology, factories or {}, config, placement)

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
