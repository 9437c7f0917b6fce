"""Topology model used by all SpinStreams analyses.

A streaming application is a *topology*: a directed acyclic graph whose
vertices are operators and whose edges are unidirectional data streams.
Following the paper (Section 3.1) the analyses require *rooted flow
graphs*: a unique source vertex (no input edges) from which every other
vertex is reachable.  Edges carry routing probabilities; for a vertex
with several output edges each produced item is delivered to one
destination sampled with the edge probability, so the probabilities of
the output edges of a vertex must sum to one.

This module only models the *abstract* topology: operator names,
queueing parameters (service time, selectivities, state kind) and the
weighted edges.  Executable operator logic lives in
:mod:`repro.operators`, and is attached to a topology through the
``operator_class`` attribute of :class:`OperatorSpec` (the analog of the
``.class`` files passed to the original tool).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class StateKind(Enum):
    """How an operator manages state; drives the fission strategy.

    * ``STATELESS`` operators can always be replicated (shuffle routing).
    * ``PARTITIONED`` operators own a partitionable state indexed by a
      key attribute; replicas each own a subset of the keys.
    * ``STATEFUL`` operators own a monolithic state and can never be
      replicated.
    """

    STATELESS = "stateless"
    PARTITIONED = "partitioned-stateful"
    STATEFUL = "stateful"

    @classmethod
    def parse(cls, text: str) -> "StateKind":
        """Parse a state kind from its XML spelling (case-insensitive)."""
        normalized = text.strip().lower().replace("_", "-")
        aliases = {
            "stateless": cls.STATELESS,
            "partitioned": cls.PARTITIONED,
            "partitioned-stateful": cls.PARTITIONED,
            "stateful": cls.STATEFUL,
        }
        try:
            return aliases[normalized]
        except KeyError:
            raise TopologyError(f"unknown operator state kind: {text!r}") from None


class TopologyError(ValueError):
    """Raised when a topology violates the structural assumptions."""


#: ``operator_class`` of a fused vertex.  A marker, not an importable
#: class: the runtime builds a meta-operator from the fusion plan, and
#: the code analyzers skip it (the members were analyzed before fusion).
META_OPERATOR_CLASS = "repro.runtime.meta.MetaOperator"


def key_mass(frequencies: Mapping[str, float]) -> float:
    """The exactly rounded sum of a key-frequency map, or NaN when a
    frequency is not positive.

    The one mass rule: :class:`KeyDistribution` and lint rule SS113
    both accept a map exactly when this is within 1e-6 of one.
    """
    values = frequencies.values()
    # min() skips a NaN that follows a smaller value, but then every
    # value is positive or NaN and the sum is NaN.
    if not min(values, default=1.0) > 0.0:
        return math.nan
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose partial sums overflow
        return math.inf


@dataclass(frozen=True)
class KeyDistribution:
    """Frequency distribution of the partitioning key of an operator.

    ``frequencies`` maps each key to the probability that an input item
    carries that key.  The probabilities must be positive and sum to one
    (within numerical tolerance).

    What the analyses derive from a distribution — its items in
    signature and in heaviest-first order, and one partition plan per
    ``(heuristic, replicas)`` — is computed once and kept on the
    instance, so it lives exactly as long as the topology that carries
    it.  Derived data is not a field: it takes no part in ``==`` or
    ``repr`` and is left out of pickles and copies.
    """

    frequencies: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.frequencies:
            raise TopologyError("key distribution must contain at least one key")
        total = key_mass(self.frequencies)
        if math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
            return
        for key, freq in self.frequencies.items():
            if freq <= 0.0:
                raise TopologyError(f"key {key!r} has non-positive frequency {freq}")
        raise TopologyError(f"key frequencies must sum to 1, got {total}")

    def __getstate__(self) -> Dict[str, object]:
        # Fields only: a receiving process recomputes what it needs.
        return {"frequencies": self.frequencies}

    def __len__(self) -> int:
        return len(self.frequencies)

    def items(self) -> Iterable[Tuple[str, float]]:
        return self.frequencies.items()

    def max_frequency(self) -> float:
        return max(self.frequencies.values())

    @cached_property
    def signature(self) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
        """Hashable digest of the items in insertion order: the keys,
        then their frequencies (two flat tuples, not one per key)."""
        return tuple(self.frequencies), tuple(self.frequencies.values())

    @cached_property
    def heaviest_first(self) -> Tuple[Tuple[str, float], ...]:
        """The items by decreasing frequency, ties broken by key."""
        return tuple(sorted(self.frequencies.items(),
                            key=lambda item: (-item[1], item[0])))

    @cached_property
    def partition_plans(self) -> Dict[Tuple[str, int], object]:
        """``(heuristic, replicas) -> PartitionPlan`` memo, filled by
        :func:`repro.core.partitioning.key_partitioning`."""
        return {}

    @classmethod
    def uniform(cls, num_keys: int) -> "KeyDistribution":
        """A uniform distribution over ``num_keys`` synthetic keys."""
        if num_keys <= 0:
            raise TopologyError("num_keys must be positive")
        freq = 1.0 / num_keys
        return cls({f"k{i}": freq for i in range(num_keys)})

    @classmethod
    def zipf(cls, num_keys: int, exponent: float) -> "KeyDistribution":
        """A ZipF (power-law) distribution as used by the paper testbed."""
        if num_keys <= 0:
            raise TopologyError("num_keys must be positive")
        if exponent <= 0:
            raise TopologyError("exponent must be positive")
        weights = [1.0 / (rank ** exponent) for rank in range(1, num_keys + 1)]
        total = sum(weights)
        return cls({f"k{i}": w / total for i, w in enumerate(weights)})


@dataclass(frozen=True)
class OperatorSpec:
    """Queueing-level description of one operator of the topology.

    Parameters
    ----------
    name:
        Unique identifier inside the topology.
    service_time:
        Mean time (seconds) spent to consume one input item, including
        the communication latency to send the result — the inverse of
        the service rate ``mu`` of the paper.
    state:
        State kind (see :class:`StateKind`); defaults to stateless.
    input_selectivity:
        Average number of input items consumed before one activation
        produces output (sliding windows: the slide).  Must be > 0.
    output_selectivity:
        Average number of output items produced per activation.
        Must be >= 0 (a pure sink has 0).
    replication:
        Number of replicas (>= 1); set by the bottleneck-elimination
        algorithm, 1 in imported topologies.
    keys:
        Key frequency distribution, mandatory for partitioned-stateful
        operators.
    operator_class:
        Dotted path of the executable operator implementation used by
        code generation and the runtime (optional for pure analyses).
    operator_args:
        Keyword arguments for the operator implementation constructor.
    """

    name: str
    service_time: float
    state: StateKind = StateKind.STATELESS
    input_selectivity: float = 1.0
    output_selectivity: float = 1.0
    replication: int = 1
    keys: Optional[KeyDistribution] = None
    operator_class: Optional[str] = None
    operator_args: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("operator name must be non-empty")
        if self.service_time <= 0.0:
            raise TopologyError(
                f"operator {self.name!r}: service_time must be positive, "
                f"got {self.service_time}"
            )
        if self.input_selectivity <= 0.0:
            raise TopologyError(
                f"operator {self.name!r}: input selectivity must be positive"
            )
        if self.output_selectivity < 0.0:
            raise TopologyError(
                f"operator {self.name!r}: output selectivity must be non-negative"
            )
        if self.replication < 1:
            raise TopologyError(f"operator {self.name!r}: replication must be >= 1")
        if self.state is StateKind.PARTITIONED and self.keys is None:
            raise TopologyError(
                f"operator {self.name!r} is partitioned-stateful but has no "
                "key distribution"
            )

    @property
    def service_rate(self) -> float:
        """Items served per second by one replica (``mu`` in the paper)."""
        return 1.0 / self.service_time

    @property
    def gain(self) -> float:
        """Items emitted per item consumed (output over input selectivity)."""
        return self.output_selectivity / self.input_selectivity

    def with_replication(self, replication: int) -> "OperatorSpec":
        """A copy of this spec with a different replication degree."""
        return replace(self, replication=replication)

    def with_service_time(self, service_time: float) -> "OperatorSpec":
        """A copy of this spec with a different mean service time."""
        return replace(self, service_time=service_time)


@dataclass(frozen=True)
class BatchConfig:
    """Mailbox batching of one stream: message size and flush deadline.

    ``size`` tuples are packed into one mailbox message before delivery,
    amortizing the per-message hop cost.  An idle or exhausted sender
    delivers its partial batch at once (the runtime's flush is
    work-conserving); ``flush_timeout`` seconds bounds how long a
    continuously busy sender may hold one.  ``size=1`` is semantically
    identical to unbatched delivery (gated by the differential test
    layer).
    """

    size: int = 1
    flush_timeout: float = 0.05

    def __post_init__(self) -> None:
        if self.size < 1:
            raise TopologyError(
                f"batch size must be >= 1, got {self.size}")
        if self.flush_timeout <= 0.0:
            raise TopologyError(
                f"batch flush timeout must be positive, "
                f"got {self.flush_timeout}")


@dataclass(frozen=True)
class CheckpointConfig:
    """Aligned-barrier checkpointing of one topology.

    The source injects a barrier envelope every ``interval_items``
    emitted items; barriers flow in-band through the mailboxes, align at
    multi-input operators and trigger ``snapshot_state()`` on every
    operator they pass (see :mod:`repro.runtime.checkpoint`).  The
    ``retained`` most recent *complete* epochs are kept for rollback;
    ``snapshot_overhead`` is the per-snapshot cost (seconds) the cost
    models charge as a periodic service-time tax.
    """

    interval_items: int = 100
    retained: int = 2
    snapshot_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.interval_items < 1:
            raise TopologyError(
                f"checkpoint interval must be >= 1 item, "
                f"got {self.interval_items}")
        if self.retained < 1:
            raise TopologyError(
                f"checkpoint retention must be >= 1 epoch, "
                f"got {self.retained}")
        if self.snapshot_overhead < 0.0:
            raise TopologyError(
                f"checkpoint snapshot overhead must be non-negative, "
                f"got {self.snapshot_overhead}")


@dataclass(frozen=True)
class Edge:
    """A directed stream between two operators with a routing probability.

    ``capacity`` is the optional bounded-buffer size of the stream (in
    items).  ``None`` means "unspecified": the runtime falls back to its
    configured mailbox capacity.  When given it must be at least one —
    a BAS stream with a zero or negative buffer could never move an
    item.  ``batch`` optionally batches deliveries on this stream (see
    :class:`BatchConfig`); ``None`` falls back to the runtime's global
    batching configuration.
    """

    source: str
    target: str
    probability: float = 1.0
    capacity: Optional[int] = None
    batch: Optional[BatchConfig] = None

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise TopologyError(f"self-loop on operator {self.source!r}")
        if not 0.0 < self.probability <= 1.0:
            raise TopologyError(
                f"edge {self.source!r}->{self.target!r}: probability must be "
                f"in (0, 1], got {self.probability}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise TopologyError(
                f"edge {self.source!r}->{self.target!r}: buffer capacity "
                f"must be >= 1, got {self.capacity}"
            )


class Topology:
    """A rooted acyclic streaming topology.

    The constructor validates all structural assumptions required by the
    SpinStreams cost models (Section 3.1 of the paper):

    * the graph is acyclic;
    * there is exactly one source (vertex without input edges);
    * every vertex is reachable from the source;
    * for every vertex with output edges the probabilities sum to one.

    Instances are immutable from the caller's point of view: derived
    topologies (after fission or fusion) are new objects.
    """

    def __init__(
        self,
        operators: Iterable[OperatorSpec],
        edges: Iterable[Edge],
        name: str = "topology",
        checkpoint: Optional[CheckpointConfig] = None,
        latency_budget: Optional[float] = None,
    ) -> None:
        self.name = name
        self.checkpoint = checkpoint
        if latency_budget is not None and latency_budget <= 0.0:
            raise TopologyError(
                f"latency budget must be positive, got {latency_budget}")
        #: End-to-end latency target (seconds) declared by the
        #: application; the deployment verifier checks batch flush
        #: deadlines against it (rule SS313).
        self.latency_budget = latency_budget
        self._operators: Dict[str, OperatorSpec] = {}
        for spec in operators:
            if spec.name in self._operators:
                raise TopologyError(f"duplicate operator name {spec.name!r}")
            self._operators[spec.name] = spec

        self._edges: List[Edge] = []
        self._out: Dict[str, List[Edge]] = {n: [] for n in self._operators}
        self._in: Dict[str, List[Edge]] = {n: [] for n in self._operators}
        seen_pairs = set()
        for edge in edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in self._operators:
                    raise TopologyError(f"edge references unknown operator {endpoint!r}")
            pair = (edge.source, edge.target)
            if pair in seen_pairs:
                raise TopologyError(f"duplicate edge {edge.source!r}->{edge.target!r}")
            seen_pairs.add(pair)
            self._edges.append(edge)
            self._out[edge.source].append(edge)
            self._in[edge.target].append(edge)

        self._validate_probabilities()
        self._source = self._find_single_source()
        self._order = self._topological_order()
        self._validate_reachability()

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _validate_probabilities(self) -> None:
        for name, out_edges in self._out.items():
            if not out_edges:
                continue
            total = sum(e.probability for e in out_edges)
            if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
                raise TopologyError(
                    f"output probabilities of operator {name!r} sum to "
                    f"{total}, expected 1"
                )

    def _find_single_source(self) -> str:
        sources = [name for name, ins in self._in.items() if not ins]
        if len(sources) != 1:
            raise TopologyError(
                f"topology must have exactly one source, found {sorted(sources)}"
            )
        return sources[0]

    def _topological_order(self) -> List[str]:
        indegree = {name: len(ins) for name, ins in self._in.items()}
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while ready:
            # Deterministic order: pop the lexicographically smallest of
            # the ready vertices so repeated runs agree.
            ready.sort()
            name = ready.pop(0)
            order.append(name)
            for edge in self._out[name]:
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    ready.append(edge.target)
        if len(order) != len(self._operators):
            cyclic = sorted(set(self._operators) - set(order))
            raise TopologyError(f"topology contains a cycle through {cyclic}")
        return order

    def _validate_reachability(self) -> None:
        reached = set()
        stack = [self._source]
        while stack:
            name = stack.pop()
            if name in reached:
                continue
            reached.add(name)
            stack.extend(e.target for e in self._out[name])
        missing = sorted(set(self._operators) - reached)
        if missing:
            raise TopologyError(
                f"operators not reachable from the source: {missing}"
            )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def source(self) -> str:
        """Name of the unique source operator."""
        return self._source

    @property
    def sinks(self) -> List[str]:
        """Names of the operators without output edges, in topological order."""
        return [name for name in self._order if not self._out[name]]

    @property
    def operators(self) -> List[OperatorSpec]:
        """All operator specs in topological order."""
        return [self._operators[name] for name in self._order]

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    @property
    def names(self) -> List[str]:
        """Operator names in topological order."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def __iter__(self) -> Iterator[OperatorSpec]:
        return iter(self.operators)

    def operator(self, name: str) -> OperatorSpec:
        try:
            return self._operators[name]
        except KeyError:
            raise TopologyError(f"unknown operator {name!r}") from None

    def out_edges(self, name: str) -> List[Edge]:
        self.operator(name)
        return list(self._out[name])

    def in_edges(self, name: str) -> List[Edge]:
        self.operator(name)
        return list(self._in[name])

    def successors(self, name: str) -> List[str]:
        return [e.target for e in self.out_edges(name)]

    def predecessors(self, name: str) -> List[str]:
        return [e.source for e in self.in_edges(name)]

    def edge(self, source: str, target: str) -> Edge:
        for e in self._out.get(source, []):
            if e.target == target:
                return e
        raise TopologyError(f"no edge {source!r}->{target!r}")

    def topological_order(self) -> List[str]:
        """The topological ordering used by the analysis algorithms."""
        return list(self._order)

    # ------------------------------------------------------------------
    # path utilities (Theorem 3.2 machinery)
    # ------------------------------------------------------------------
    def paths_to(self, target: str) -> List[Tuple[List[str], float]]:
        """All paths from the source to ``target`` with their probabilities.

        Each returned pair is ``(vertices, probability)`` where the
        probability is the product of the probabilities of the traveled
        edges — the quantity summed in equation (1) of the paper.
        """
        self.operator(target)
        results: List[Tuple[List[str], float]] = []

        def walk(name: str, prob: float, trail: List[str]) -> None:
            trail = trail + [name]
            if name == target:
                results.append((trail, prob))
                return
            for edge in self._out[name]:
                walk(edge.target, prob * edge.probability, trail)

        walk(self._source, 1.0, [])
        return results

    def visit_probability(self, target: str) -> float:
        """Probability that one source item (or a descendant) reaches ``target``.

        This is the sum over all source-to-target paths of the path
        probabilities.  It coincides with the ratio between the arrival
        rate at ``target`` and the source departure rate when every
        operator has unit selectivity and no bottleneck throttles the flow.
        """
        # Dynamic programming over the topological order instead of
        # explicit path enumeration: robust to graphs with exponentially
        # many paths.
        prob = {name: 0.0 for name in self._order}
        prob[self._source] = 1.0
        for name in self._order:
            for edge in self._out[name]:
                prob[edge.target] += prob[name] * edge.probability
        return prob[target]

    def subgraph_is_connected(self, names: Sequence[str]) -> bool:
        """Whether ``names`` induces a weakly connected subgraph."""
        selected = set(names)
        if not selected:
            return False
        for name in selected:
            self.operator(name)
        start = next(iter(selected))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            neighbours = [
                e.target for e in self._out[current] if e.target in selected
            ] + [e.source for e in self._in[current] if e.source in selected]
            for n in neighbours:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return seen == selected

    # ------------------------------------------------------------------
    # derivation helpers
    # ------------------------------------------------------------------
    def with_replications(self, degrees: Mapping[str, int]) -> "Topology":
        """A copy of the topology with replication degrees applied."""
        new_specs = []
        for spec in self.operators:
            if spec.name in degrees:
                new_specs.append(spec.with_replication(degrees[spec.name]))
            else:
                new_specs.append(spec)
        return Topology(new_specs, self._edges, name=self.name,
                        checkpoint=self.checkpoint,
                        latency_budget=self.latency_budget)

    def with_operator(self, spec: OperatorSpec) -> "Topology":
        """A copy of the topology with one operator spec replaced."""
        self.operator(spec.name)
        new_specs = [spec if s.name == spec.name else s for s in self.operators]
        return Topology(new_specs, self._edges, name=self.name,
                        checkpoint=self.checkpoint,
                        latency_budget=self.latency_budget)

    def with_checkpoint(self,
                        checkpoint: Optional[CheckpointConfig]) -> "Topology":
        """A copy of the topology with a different checkpoint config."""
        return Topology(self.operators, self._edges, name=self.name,
                        checkpoint=checkpoint,
                        latency_budget=self.latency_budget)

    def with_latency_budget(self,
                            latency_budget: Optional[float]) -> "Topology":
        """A copy of the topology with a different latency budget."""
        return Topology(self.operators, self._edges, name=self.name,
                        checkpoint=self.checkpoint,
                        latency_budget=latency_budget)

    def total_replicas(self) -> int:
        """Total number of replicas across all operators."""
        return sum(spec.replication for spec in self.operators)

    def describe(self) -> str:
        """A short multi-line human-readable description."""
        lines = [f"topology {self.name!r}: {len(self)} operators, "
                 f"{len(self._edges)} edges, source={self._source!r}"]
        for name in self._order:
            spec = self._operators[name]
            outs = ", ".join(
                f"{e.target}({e.probability:.3g})" for e in self._out[name]
            ) or "-"
            lines.append(
                f"  {name}: T={spec.service_time * 1e3:.4g} ms, "
                f"{spec.state.value}, n={spec.replication}, -> {outs}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, operators={len(self)}, "
            f"edges={len(self._edges)})"
        )
