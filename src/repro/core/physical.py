"""The physical plan: the one translation from a topology to actors.

Section 4.2 of the paper maps the optimized topology to executors once:
a dedicated actor per standard operator, an emitter + replicas +
collector ensemble per parallel operator, one meta-operator actor per
fused sub-graph.  :func:`build_plan` is that mapping as data — nodes
(one per actor), links (one per mailbox-to-mailbox stream) and a shard
per node — and every runtime backend is a reader of it: the threaded
:class:`~repro.runtime.system.ActorSystem` wires all of it on shard 0,
a :mod:`~repro.runtime.procshard` worker wires the nodes of its own
shard and turns the links that cross into pipe channels.

``order`` is a topological order of ``links`` (a vertex's emitter, then
its replicas, then its collector, vertices in the topology's order), so
retiring actors in it closes a mailbox only after every sender into it
has flushed and exited: a finite job ends by the plan, losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.graph import Edge, StateKind, Topology
from repro.core.partitioning import key_partitioning


@dataclass(frozen=True)
class Node:
    """One actor of the plan (its id is the actor name)."""

    node_id: str
    kind: str  # source | single | fused | emitter | replica | collector
    vertex: str
    shard: int = 0
    replica: int = 0


@dataclass(frozen=True)
class Link:
    """One physical stream between two nodes (SPSC: one sending actor).

    ``route`` links are the topology's edges (exit node of the source
    vertex to entry node of the target, carrying the edge's probability
    and batching); ``scatter`` and ``gather`` links are internal to an
    ensemble and carry the batching of its vertex's edges, so a batch
    crosses the ensemble whole.  ``channel`` numbers the links that
    cross shards.
    """

    sender: str
    receiver: str
    kind: str  # route | scatter | gather
    probability: float = 1.0
    channel: Optional[int] = None
    batch_size: int = 1
    flush_timeout: float = 0.05


class PhysicalPlan:
    """Nodes, links and placement of one deployed topology."""

    def __init__(self) -> None:
        self.nodes: Dict[str, Node] = {}
        self.order: List[str] = []
        self.links: List[Link] = []
        self.links_from: Dict[str, List[Link]] = {}
        self.links_to: Dict[str, List[Link]] = {}
        #: vertex -> the node its input arrives at / its output leaves
        #: from (the emitter / the collector of an ensemble).
        self.entry: Dict[str, str] = {}
        self.exit: Dict[str, str] = {}
        self.channel_count = 0
        #: vertex -> key->replica assignment (partitioned ensembles only)
        self.key_assignments: Dict[str, Mapping[str, int]] = {}

    def add_node(self, node: Node) -> None:
        self.nodes[node.node_id] = node
        self.order.append(node.node_id)
        self.links_from[node.node_id] = []
        self.links_to[node.node_id] = []

    def add_link(self, sender: str, receiver: str, kind: str,
                 probability: float = 1.0, batch_size: int = 1,
                 flush_timeout: float = 0.05) -> None:
        channel: Optional[int] = None
        if self.nodes[sender].shard != self.nodes[receiver].shard:
            channel = self.channel_count
            self.channel_count += 1
        link = Link(sender=sender, receiver=receiver, kind=kind,
                    probability=probability, channel=channel,
                    batch_size=batch_size, flush_timeout=flush_timeout)
        self.links.append(link)
        self.links_from[sender].append(link)
        self.links_to[receiver].append(link)

    def shard_nodes(self, shard: int) -> List[Node]:
        """The nodes placed on ``shard``, in plan order."""
        return [self.nodes[nid] for nid in self.order
                if self.nodes[nid].shard == shard]


def build_plan(topology: Topology,
               placement: Optional[Mapping[str, Sequence[int]]] = None,
               *, batch_size: int, batch_flush_timeout: float,
               partition_heuristic: str,
               fused: Collection[str] = (),
               elastic: bool = False) -> PhysicalPlan:
    """Translate ``topology`` into its physical plan.

    ``placement`` maps every vertex to one shard per replica (the first
    also hosts the ensemble's emitter and collector); ``None`` places
    every node on shard 0.  ``fused`` names the vertices executed by a
    fusion plan.  ``elastic`` makes every stateless vertex an ensemble
    even at degree 1, so replicas can be added behind its emitter while
    the system runs.  ``batch_size`` / ``batch_flush_timeout`` are the
    defaults of edges without a ``BatchConfig`` of their own; an
    ensemble's scatter (gather) links batch like the edges into (out
    of) its vertex when those agree, and by the defaults otherwise.
    """
    plan = PhysicalPlan()
    default = (batch_size, batch_flush_timeout)
    for spec in topology.operators:
        name = spec.name
        shards = (tuple(placement[name]) if placement is not None
                  else (0,) * spec.replication)
        home = shards[0]
        plan.entry[name] = plan.exit[name] = name
        if name == topology.source:
            plan.add_node(Node(name, "source", name, home))
        elif name in fused:
            plan.add_node(Node(name, "fused", name, home))
        elif spec.replication > 1 or (elastic
                                      and spec.state is StateKind.STATELESS):
            emitter = plan.entry[name] = f"{name}.emitter"
            collector = plan.exit[name] = f"{name}.collector"
            plan.add_node(Node(emitter, "emitter", name, home))
            for index, shard in enumerate(shards):
                plan.add_node(Node(f"{name}#{index}", "replica", name,
                                   shard, replica=index))
            plan.add_node(Node(collector, "collector", name, home))
            # An ensemble moves its edges' batches whole: a scatter link
            # batches like the edges into the vertex, a gather link like
            # the edges out of it.
            scatter = _batching(topology.in_edges(name), default)
            gather = _batching(topology.out_edges(name), default)
            for index in range(len(shards)):
                plan.add_link(emitter, f"{name}#{index}", "scatter",
                              batch_size=scatter[0], flush_timeout=scatter[1])
                plan.add_link(f"{name}#{index}", collector, "gather",
                              batch_size=gather[0], flush_timeout=gather[1])
            if spec.state is StateKind.PARTITIONED:
                assert spec.keys is not None  # enforced by OperatorSpec
                _, _, partition = key_partitioning(
                    spec.keys, len(shards), heuristic=partition_heuristic)
                plan.key_assignments[name] = dict(partition.assignment)
        else:
            plan.add_node(Node(name, "single", name, home))
    for edge in topology.edges:
        size, flush = _batching([edge], default)
        plan.add_link(plan.exit[edge.source], plan.entry[edge.target],
                      "route", probability=edge.probability,
                      batch_size=size, flush_timeout=flush)
    return plan


def _batching(edges: Sequence[Edge],
              default: Tuple[int, float]) -> Tuple[int, float]:
    """``(size, flush_timeout)`` every edge of ``edges`` batches by, or
    ``default`` when they disagree (or there are none)."""
    batchings = {default if edge.batch is None
                 else (edge.batch.size, edge.batch.flush_timeout)
                 for edge in edges}
    return batchings.pop() if len(batchings) == 1 else default
