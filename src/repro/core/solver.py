"""Memoized and incremental steady-state solver.

The optimizer search loops (:mod:`repro.core.candidates`,
:mod:`repro.core.autofusion`, :mod:`repro.core.fission`) call the
steady-state analysis once per candidate restructuring per round —
O(topology) fixed-point work for edits that touch O(1) vertices.  This
module makes that loop cheap while staying *bit-identical* to
:func:`repro.core.steady_state.analyze`:

* :meth:`SteadyStateSolver.analyze` memoizes full analyses behind a
  canonical topology signature (operator specs, edge lists in insertion
  order, and every analysis parameter), so re-analyzing an unchanged
  topology is a dictionary lookup;
* :meth:`SteadyStateSolver.analyze_edit` re-solves a topology derived
  from an already-analyzed base by recomputing only the *dirty cone* —
  the edited vertices and their descendants — while clean vertices reuse
  the converged per-pass rates of the base solve.

Exactness argument for the incremental path: a vertex is *clean* when
its spec and (ordered) input-edge list are unchanged and no ancestor
was edited.  Clean vertices form an ancestor-closed set, so during a
topological pass at a given source rate their arrival sums accumulate
the same floats in the same order as the base solve — the cached
:class:`~repro.core.steady_state.OperatorRates` are bit-identical to
what a fresh pass would produce.  Dirty vertices are recomputed with the
very same :func:`~repro.core.steady_state._single_pass` code, and the
Theorem 3.2 correction loop is replicated verbatim, so the fixed point
(rates, corrections, throttled source rate) matches a fresh
:func:`~repro.core.steady_state.analyze` exactly.  The property tests in
``tests/core/test_solver.py`` assert this equality on seeded random
topologies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.graph import BatchConfig, OperatorSpec, Topology, TopologyError
from repro.core.steady_state import (
    Correction,
    OperatorRates,
    SteadyStateResult,
    _first_bottleneck,
    _single_pass,
    operator_capacity,
)
from repro.instrumentation import SOLVER


def _spec_signature(spec: OperatorSpec) -> tuple:
    """Hashable digest of the spec fields the analysis depends on.

    ``operator_class``/``operator_args`` are deliberately excluded: they
    configure the runtime implementation, not the cost model, so two
    topologies differing only there share one cache entry.
    """
    keys = spec.keys.signature if spec.keys is not None else None
    return (
        spec.name,
        spec.service_time,
        spec.state.value,
        spec.input_selectivity,
        spec.output_selectivity,
        spec.replication,
        keys,
    )


def _freeze_mapping(mapping: Optional[Mapping[str, float]]) -> Optional[tuple]:
    if mapping is None:
        return None
    return tuple(sorted(mapping.items()))


def topology_signature(
    topology: Topology,
    source_rate: Optional[float] = None,
    partition_heuristic: str = "greedy",
    max_iterations: Optional[int] = None,
    availability: Optional[Mapping[str, float]] = None,
    gain_factor: Optional[Mapping[str, float]] = None,
    input_factor: Optional[Mapping[str, float]] = None,
) -> tuple:
    """Canonical cache key of one ``analyze()`` invocation.

    Edge order is part of the key: arrival rates sum floats in input-edge
    insertion order, and float addition is not associative, so two
    topologies with re-ordered edges may legitimately produce different
    last-bit results.
    """
    operators = tuple(
        _spec_signature(topology.operator(name)) for name in topology.names
    )
    edges = tuple(
        (edge.source, edge.target, edge.probability) for edge in topology.edges
    )
    return (
        operators,
        edges,
        source_rate,
        partition_heuristic,
        max_iterations,
        _freeze_mapping(availability),
        _freeze_mapping(gain_factor),
        _freeze_mapping(input_factor),
    )


class _CacheEntry:
    """A converged solve plus the intermediate state reuse needs."""

    __slots__ = ("result", "capacities", "passes")

    def __init__(
        self,
        result: SteadyStateResult,
        capacities: Dict[str, Tuple[float, float]],
        passes: Dict[float, Dict[str, OperatorRates]],
    ) -> None:
        self.result = result
        self.capacities = capacities
        #: source_rate -> per-vertex rates of the pass run at that rate.
        self.passes = passes


def _dirty_cone(base: Topology, edited: Topology) -> Set[str]:
    """Vertices of ``edited`` that cannot reuse the base solve.

    A vertex is *changed* when it is new, its spec differs, or its
    ordered input-edge list differs from the base; the dirty cone is the
    changed set plus all its descendants in the edited topology.
    """
    base_names = set(base.names)
    changed: Set[str] = set()
    for name in edited.names:
        if name not in base_names:
            changed.add(name)
            continue
        if _spec_signature(edited.operator(name)) != _spec_signature(
            base.operator(name)
        ):
            changed.add(name)
            continue
        edited_in = tuple(
            (e.source, e.probability) for e in edited.in_edges(name)
        )
        base_in = tuple((e.source, e.probability) for e in base.in_edges(name))
        if edited_in != base_in:
            changed.add(name)
    dirty = set(changed)
    stack = list(changed)
    while stack:
        for successor in edited.successors(stack.pop()):
            if successor not in dirty:
                dirty.add(successor)
                stack.append(successor)
    return dirty


class SteadyStateSolver:
    """LRU-memoized front-end to the steady-state analysis.

    Results returned from the cache are re-bound to the caller's
    topology object (``dataclasses.replace``), so identity-based callers
    (``result.topology is my_topology``) keep working.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._cache: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # cached full analysis

    def analyze(
        self,
        topology: Topology,
        source_rate: Optional[float] = None,
        partition_heuristic: str = "greedy",
        max_iterations: Optional[int] = None,
        availability: Optional[Mapping[str, float]] = None,
        gain_factor: Optional[Mapping[str, float]] = None,
        input_factor: Optional[Mapping[str, float]] = None,
    ) -> SteadyStateResult:
        """Memoized equivalent of :func:`repro.core.steady_state.analyze`."""
        if source_rate is None:
            # Resolve the default before keying so explicit and implicit
            # source rates share one entry (analyze() resolves the same).
            source_rate = topology.operator(topology.source).service_rate
        signature = topology_signature(
            topology, source_rate, partition_heuristic, max_iterations,
            availability, gain_factor, input_factor,
        )
        entry = self._cache.get(signature)
        if entry is not None:
            SOLVER.cache_hits += 1
            self._cache.move_to_end(signature)
            return self._rebind(entry.result, topology)
        SOLVER.cache_misses += 1
        entry = self._full_solve(
            topology, source_rate, partition_heuristic, max_iterations,
            availability, gain_factor, input_factor,
        )
        self._remember(signature, entry)
        return entry.result

    # ------------------------------------------------------------------
    # incremental analysis after a topology edit

    def analyze_edit(
        self,
        base: Topology,
        edited: Topology,
        source_rate: Optional[float] = None,
        partition_heuristic: str = "greedy",
        max_iterations: Optional[int] = None,
        availability: Optional[Mapping[str, float]] = None,
        gain_factor: Optional[Mapping[str, float]] = None,
        input_factor: Optional[Mapping[str, float]] = None,
    ) -> SteadyStateResult:
        """Analyze ``edited``, reusing a cached solve of ``base``.

        The edit (fusion, fission, spec change) is discovered
        automatically by diffing the two topologies; only the dirty cone
        is recomputed per pass.  Falls back to a cached full solve when
        the base was never analyzed with these parameters.
        """
        if source_rate is None:
            base_rate = base.operator(base.source).service_rate
            edited_rate = edited.operator(edited.source).service_rate
        else:
            base_rate = edited_rate = source_rate

        edited_signature = topology_signature(
            edited, edited_rate, partition_heuristic, max_iterations,
            availability, gain_factor, input_factor,
        )
        entry = self._cache.get(edited_signature)
        if entry is not None:
            SOLVER.cache_hits += 1
            self._cache.move_to_end(edited_signature)
            return self._rebind(entry.result, edited)
        SOLVER.cache_misses += 1

        base_signature = topology_signature(
            base, base_rate, partition_heuristic, max_iterations,
            availability, gain_factor, input_factor,
        )
        base_entry = self._cache.get(base_signature)
        if base_entry is None:
            entry = self._full_solve(
                edited, edited_rate, partition_heuristic, max_iterations,
                availability, gain_factor, input_factor,
            )
            self._remember(edited_signature, entry)
            return entry.result

        SOLVER.incremental_solves += 1
        dirty = _dirty_cone(base, edited)
        order = edited.topological_order()
        iterations = max_iterations
        if iterations is None:
            iterations = len(order) + 1

        # Clean vertices have unchanged specs and identical derating
        # parameters (both are part of the base signature), so their
        # capacities can be copied without re-running partition_shares.
        capacities: Dict[str, Tuple[float, float]] = {}
        base_capacities = base_entry.capacities
        for name in order:
            if name in dirty:
                capacities[name] = _derated_capacity(
                    edited, name, partition_heuristic, availability
                )
            else:
                capacities[name] = base_capacities[name]

        memo = base_entry.passes
        passes: Dict[float, Dict[str, OperatorRates]] = {}
        corrections: List[Correction] = []
        current_rate = edited_rate
        for _ in range(iterations):
            reuse = memo.get(current_rate)
            rates = _single_pass(
                edited, order, capacities, current_rate,
                gain_factor=gain_factor, input_factor=input_factor,
                reuse=reuse, dirty=dirty if reuse is not None else None,
            )
            passes[current_rate] = rates
            bottleneck = _first_bottleneck(order, rates)
            if bottleneck is None:
                result = SteadyStateResult(
                    topology=edited,
                    rates=rates,
                    corrections=tuple(corrections),
                    source_rate=current_rate,
                )
                entry = _CacheEntry(result, capacities, passes)
                self._remember(edited_signature, entry)
                return result
            rho = rates[bottleneck].utilization
            corrected = current_rate / rho
            corrections.append(
                Correction(
                    bottleneck=bottleneck,
                    utilization=rho,
                    source_rate_before=current_rate,
                    source_rate_after=corrected,
                )
            )
            current_rate = corrected
        raise TopologyError(
            f"steady-state analysis did not converge after {iterations} "
            "corrections; the topology violates the model assumptions"
        )

    # ------------------------------------------------------------------
    # internals

    def _full_solve(
        self,
        topology: Topology,
        source_rate: float,
        partition_heuristic: str,
        max_iterations: Optional[int],
        availability: Optional[Mapping[str, float]],
        gain_factor: Optional[Mapping[str, float]],
        input_factor: Optional[Mapping[str, float]],
    ) -> _CacheEntry:
        """Replica of :func:`analyze`'s fixed point, recording each pass."""
        SOLVER.full_solves += 1
        if source_rate <= 0.0:
            raise TopologyError(
                f"source rate must be positive, got {source_rate}"
            )
        order = topology.topological_order()
        if max_iterations is None:
            max_iterations = len(order) + 1
        capacities = {
            name: _derated_capacity(
                topology, name, partition_heuristic, availability
            )
            for name in order
        }
        passes: Dict[float, Dict[str, OperatorRates]] = {}
        corrections: List[Correction] = []
        current_rate = source_rate
        for _ in range(max_iterations):
            rates = _single_pass(
                topology, order, capacities, current_rate,
                gain_factor=gain_factor, input_factor=input_factor,
            )
            passes[current_rate] = rates
            bottleneck = _first_bottleneck(order, rates)
            if bottleneck is None:
                result = SteadyStateResult(
                    topology=topology,
                    rates=rates,
                    corrections=tuple(corrections),
                    source_rate=current_rate,
                )
                return _CacheEntry(result, capacities, passes)
            rho = rates[bottleneck].utilization
            corrected = current_rate / rho
            corrections.append(
                Correction(
                    bottleneck=bottleneck,
                    utilization=rho,
                    source_rate_before=current_rate,
                    source_rate_after=corrected,
                )
            )
            current_rate = corrected
        raise TopologyError(
            f"steady-state analysis did not converge after {max_iterations} "
            "corrections; the topology violates the model assumptions"
        )

    def _remember(self, signature: tuple, entry: _CacheEntry) -> None:
        self._cache[signature] = entry
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)

    @staticmethod
    def _rebind(result: SteadyStateResult,
                topology: Topology) -> SteadyStateResult:
        if result.topology is topology:
            return result
        return replace(result, topology=topology)


def _derated_capacity(
    topology: Topology,
    name: str,
    partition_heuristic: str,
    availability: Optional[Mapping[str, float]],
) -> Tuple[float, float]:
    """Capacity with the availability derating ``analyze()`` applies."""
    capacity, p_max = operator_capacity(topology, name, partition_heuristic)
    if availability is not None:
        derate = availability.get(name, 1.0)
        if not 0.0 < derate <= 1.0:
            raise TopologyError(
                f"availability of {name!r} must be in (0, 1], got {derate}"
            )
        capacity *= derate
    return capacity, p_max


# ----------------------------------------------------------------------
# batching cost model


@dataclass(frozen=True)
class EdgeBatchLatency:
    """Predicted extra queueing latency one batched edge adds."""

    source: str
    target: str
    batch_size: int
    #: Mean seconds a tuple waits for its batch to fill (or flush),
    #: weighted by how busy the sender is (an idle sender flushes).
    added_latency: float


@dataclass(frozen=True)
class BatchingPrediction:
    """Analytical throughput/latency trade-off of mailbox batching.

    Produced by :func:`predict_batching`; all rates are tuples/second
    and all latencies seconds, comparable with the measured counters of
    :class:`repro.runtime.system.RuntimeResult`.
    """

    batch_size: int
    hop_overhead: float
    baseline_throughput: float
    throughput: float
    edge_latencies: Tuple[EdgeBatchLatency, ...]

    @property
    def throughput_gain(self) -> float:
        """Batched over unbatched throughput (1.0 = no gain)."""
        if self.baseline_throughput <= 0.0:
            return 1.0
        return self.throughput / self.baseline_throughput

    @property
    def mean_added_latency(self) -> float:
        """Mean per-edge batching delay over all batched edges."""
        if not self.edge_latencies:
            return 0.0
        return (sum(entry.added_latency for entry in self.edge_latencies)
                / len(self.edge_latencies))


def predict_batching(
    topology: Topology,
    batch_size: int,
    hop_overhead: float,
    flush_timeout: Optional[float] = None,
    source_rate: Optional[float] = None,
    solver: Optional["SteadyStateSolver"] = None,
) -> BatchingPrediction:
    """Predict what mailbox batching does to throughput and latency.

    Cost model (micro-batch accounting in the spirit of the Spark
    Streaming simulation literature): every delivered *message* costs
    its receiver a fixed hop overhead ``hop_overhead`` — mailbox lock,
    condition wakeup and dispatch — on top of the operator's declared
    service time.  Packing ``b`` tuples per message amortizes the hop to
    ``hop_overhead / b`` per tuple, so an operator's effective service
    time falls from ``T + h`` (unbatched baseline) to ``T + h/b`` and
    the bottleneck capacity rises accordingly.  The price is queueing
    delay: on an edge with tuple rate λ the k-th tuple of a batch of
    ``b`` waits for the remaining ``b - k`` arrivals, a mean of
    ``(b - 1) / (2λ)`` seconds, capped by the flush timeout (a partial
    batch never waits past its deadline) — but only while the sender
    still has input.  The runtime's flush is work-conserving (an actor
    whose inbox runs dry sends what it buffered; a source does so when
    the receiver's inbox is dry), so the wait is scaled by the
    utilization ρ of the sending vertex in the batched solve — for the
    source's edges, which has no inbox, the receiver's.  That is the
    full fill wait at saturation (ρ → 1); below it, ρ = λT makes the
    product ``(b - 1) T / 2`` per replica — the time the sender itself
    spends on the tuples that join the batch, whatever the rate — and
    under the deadline cap ``ρ · deadline``, nothing on a quiet stream.

    Per-edge ``Edge.batch`` overrides take precedence over the global
    ``batch_size``/``flush_timeout``, mirroring the runtime's wiring.
    An operator fed by edges with different batch sizes amortizes the
    hop by the arrival-weighted mean of ``1/b`` over its input edges
    (weights from the unbatched baseline solve).
    """
    if batch_size < 1:
        raise TopologyError(f"batch size must be >= 1, got {batch_size}")
    if hop_overhead < 0.0:
        raise TopologyError(
            f"hop overhead must be non-negative, got {hop_overhead}")
    if flush_timeout is None:
        flush_timeout = BatchConfig().flush_timeout
    solver = solver or DEFAULT_SOLVER

    def edge_batch(edge) -> Tuple[int, float]:
        if edge.batch is not None:
            return edge.batch.size, edge.batch.flush_timeout
        return batch_size, flush_timeout

    def derated(per_vertex_hop: Mapping[str, float]) -> Topology:
        specs = []
        for spec in topology.operators:
            hop = per_vertex_hop.get(spec.name, 0.0)
            if hop > 0.0:
                spec = spec.with_service_time(spec.service_time + hop)
            specs.append(spec)
        return Topology(specs, topology.edges)

    # Baseline: every tuple is its own message, every non-source vertex
    # pays the full hop per tuple (the source has no input mailbox).
    receivers = [name for name in topology.names if name != topology.source]
    baseline = solver.analyze(
        derated({name: hop_overhead for name in receivers}),
        source_rate=source_rate,
    )

    # Arrival-weighted amortized hop per receiver, using baseline rates.
    amortized: Dict[str, float] = {}
    for name in receivers:
        weighted = 0.0
        total = 0.0
        for edge in topology.in_edges(name):
            size, _ = edge_batch(edge)
            rate = (baseline.rates[edge.source].departure_rate
                    * edge.probability)
            weighted += rate / size
            total += rate
        amortized[name] = (hop_overhead * weighted / total if total > 0.0
                           else hop_overhead / batch_size)
    batched = solver.analyze(derated(amortized), source_rate=source_rate)

    latencies = []
    for edge in topology.edges:
        size, deadline = edge_batch(edge)
        if size <= 1:
            continue
        rate = batched.rates[edge.source].departure_rate * edge.probability
        fill_wait = (size - 1) / (2.0 * rate) if rate > 0.0 else deadline
        busy_vertex = (edge.target if edge.source == topology.source
                       else edge.source)
        busy = min(batched.rates[busy_vertex].utilization, 1.0)
        latencies.append(EdgeBatchLatency(
            source=edge.source,
            target=edge.target,
            batch_size=size,
            added_latency=busy * min(fill_wait, deadline),
        ))
    return BatchingPrediction(
        batch_size=batch_size,
        hop_overhead=hop_overhead,
        baseline_throughput=baseline.throughput,
        throughput=batched.throughput,
        edge_latencies=tuple(latencies),
    )


# ----------------------------------------------------------------------
# sharding (multi-process placement) cost model


#: Default per-tuple pickle/unpickle cost (seconds, one direction).
DEFAULT_SERIALIZE_OVERHEAD = 2e-6
#: Default per-message pipe hop cost (send syscall + reader wakeup).
DEFAULT_IPC_OVERHEAD = 10e-6


@dataclass(frozen=True)
class ShardingPrediction:
    """Analytical cost/benefit of a multi-process shard placement.

    Produced by :func:`predict_sharding`; comparable with the measured
    throughput of :class:`repro.runtime.procshard.ProcShardSystem` (the
    process backend) and of the threaded
    :class:`repro.runtime.system.ActorSystem` (the GIL-capped estimate
    in :attr:`single_process_throughput`).
    """

    shards: int
    batch_size: int
    ipc_overhead: float
    serialize_overhead: float
    #: Fluid-model throughput with every replica on a dedicated core
    #: and free communication — the multi-core ideal.
    baseline_throughput: float
    #: Throughput after the IPC tax on crossing edges and the per-shard
    #: one-core capacity cap — what the process backend should reach.
    throughput: float
    #: All actors co-located on one core (zero IPC): the analytic cap
    #: of the threaded backend on a GIL-bound interpreter.
    single_process_throughput: float
    #: CPU demand of each shard in cores (busy seconds per second) at
    #: the predicted operating point, indexed by shard id.
    shard_loads: Tuple[Tuple[int, float], ...]
    #: Edges whose endpoints live in different shards (vertex homes).
    crossing_edges: Tuple[Tuple[str, str], ...]

    @property
    def predicted_speedup(self) -> float:
        """Process-backend over threaded-backend throughput."""
        if self.single_process_throughput <= 0.0:
            return 1.0
        return self.throughput / self.single_process_throughput

    @property
    def ipc_tax(self) -> float:
        """Fraction of the multi-core ideal lost to hops/pickling."""
        if self.baseline_throughput <= 0.0:
            return 0.0
        return 1.0 - self.throughput / self.baseline_throughput


def predict_sharding(
    topology: Topology,
    placement: Mapping[str, Sequence[int]],
    batch_size: int = 1,
    ipc_overhead: float = DEFAULT_IPC_OVERHEAD,
    serialize_overhead: float = DEFAULT_SERIALIZE_OVERHEAD,
    source_rate: Optional[float] = None,
    solver: Optional["SteadyStateSolver"] = None,
) -> ShardingPrediction:
    """Price a process-shard placement analytically.

    ``placement`` maps every vertex to one shard id per replica (length
    must equal the spec's replication); the first entry is the vertex's
    *home* shard, where single operators — and the emitter/collector of
    replicated ones — run.

    Cost model, mirroring :func:`predict_batching`'s hop accounting:

    * a tuple crossing a shard boundary costs
      ``tau = 2 * serialize_overhead + ipc_overhead / batch_size``
      (pickle + unpickle, plus the pipe hop amortized over the batch
      envelope), charged to the receiving vertex's service time
      weighted by the fraction of its arrivals that cross;
    * a replicated vertex whose replicas are scattered off its home
      shard pays ``2 * tau`` on the scattered fraction (emitter to
      replica and replica to collector both cross);
    * each shard is one OS process pinned to one core by the GIL, so
      the co-located replicas of a shard share one core: the fluid
      throughput is additionally capped by ``1 / max_s C_s`` where
      ``C_s`` is shard ``s``'s busy CPU seconds per source tuple.

    ``single_process_throughput`` applies the one-core cap to the whole
    topology with zero IPC — the threaded backend's analytic ceiling —
    so :attr:`ShardingPrediction.predicted_speedup` prices exactly the
    gain the process backend should deliver on real hardware.
    """
    if batch_size < 1:
        raise TopologyError(f"batch size must be >= 1, got {batch_size}")
    if ipc_overhead < 0.0:
        raise TopologyError(
            f"ipc overhead must be non-negative, got {ipc_overhead}")
    if serialize_overhead < 0.0:
        raise TopologyError(
            f"serialize overhead must be non-negative, "
            f"got {serialize_overhead}")
    for spec in topology.operators:
        shards_of = placement.get(spec.name)
        if shards_of is None:
            raise TopologyError(
                f"placement misses operator {spec.name!r}")
        if len(shards_of) != spec.replication:
            raise TopologyError(
                f"placement for {spec.name!r} names {len(shards_of)} "
                f"shards for {spec.replication} replicas")
        if any(s < 0 for s in shards_of):
            raise TopologyError(
                f"placement for {spec.name!r} uses a negative shard id")
    solver = solver or DEFAULT_SOLVER

    def home(name: str) -> int:
        return placement[name][0]

    tau = 2.0 * serialize_overhead + ipc_overhead / batch_size
    crossing = tuple(
        (edge.source, edge.target) for edge in topology.edges
        if home(edge.source) != home(edge.target)
    )

    baseline = solver.analyze(topology, source_rate=source_rate)

    # IPC tax per receiver: arrival-weighted crossing fraction of its
    # input edges, plus the replica-scatter round trip.
    taxed_specs = []
    for spec in topology.operators:
        tax = 0.0
        in_edges = topology.in_edges(spec.name)
        if in_edges:
            weighted = 0.0
            total = 0.0
            for edge in in_edges:
                rate = (baseline.rates[edge.source].departure_rate
                        * edge.probability)
                if home(edge.source) != home(edge.target):
                    weighted += rate
                total += rate
            if total > 0.0:
                tax += tau * weighted / total
        scattered = sum(1 for s in placement[spec.name]
                        if s != home(spec.name))
        if spec.replication > 1 and scattered:
            tax += 2.0 * tau * scattered / spec.replication
        if tax > 0.0:
            spec = spec.with_service_time(spec.service_time + tax)
        taxed_specs.append(spec)
    taxed_topology = Topology(taxed_specs, topology.edges)
    taxed = solver.analyze(taxed_topology, source_rate=source_rate)

    def shard_demands(result: SteadyStateResult,
                      topo: Topology,
                      collapse: bool) -> Dict[int, float]:
        """Busy CPU seconds per second, per shard (cores of demand)."""
        demands: Dict[int, float] = {}
        for spec in topo.operators:
            arrival = result.rates[spec.name].arrival_rate
            activations = arrival / spec.input_selectivity
            busy = activations * spec.service_time
            if collapse:
                demands[0] = demands.get(0, 0.0) + busy
                continue
            share = busy / spec.replication
            for shard in placement[spec.name]:
                demands[shard] = demands.get(shard, 0.0) + share
        return demands

    def capped_throughput(result: SteadyStateResult,
                          topo: Topology,
                          collapse: bool) -> float:
        demands = shard_demands(result, topo, collapse)
        worst = max(demands.values(), default=0.0)
        if worst <= 1.0 or result.throughput <= 0.0:
            return result.throughput
        # The fluid solve assumed a dedicated core per replica; scale
        # the operating point down until the busiest shard fits one.
        return result.throughput / worst

    throughput = capped_throughput(taxed, taxed_topology, collapse=False)
    single = capped_throughput(baseline, topology, collapse=True)

    # Shard loads reported at the capped operating point.
    demands = shard_demands(taxed, taxed_topology, collapse=False)
    scale = (throughput / taxed.throughput
             if taxed.throughput > 0.0 else 1.0)
    shard_ids = sorted({s for shards in placement.values() for s in shards})
    loads = tuple((s, demands.get(s, 0.0) * scale) for s in shard_ids)

    return ShardingPrediction(
        shards=len(shard_ids),
        batch_size=batch_size,
        ipc_overhead=ipc_overhead,
        serialize_overhead=serialize_overhead,
        baseline_throughput=baseline.throughput,
        throughput=throughput,
        single_process_throughput=single,
        shard_loads=loads,
        crossing_edges=crossing,
    )


# ----------------------------------------------------------------------
# checkpointing cost model


@dataclass(frozen=True)
class CheckpointPrediction:
    """Analytical cost of aligned-barrier checkpointing.

    Produced by :func:`predict_checkpoint`; comparable with the
    measured throughput of a checkpointed
    :class:`repro.runtime.system.ActorSystem` run and with the
    recovery timings of :func:`repro.runtime.checkpoint.
    run_recoverable`.
    """

    interval_items: int
    snapshot_overhead: float
    baseline_throughput: float
    throughput: float
    #: Per-vertex service-time tax (seconds per tuple) the barrier
    #: cadence adds, in topology insertion order.
    vertex_taxes: Tuple[Tuple[str, float], ...]
    #: Mean source items replayed after a crash at a uniformly random
    #: point of an epoch (half the interval).
    mean_replay_items: float
    #: Mean seconds a rollback costs: state restore for every vertex
    #: plus replaying the lost half-epoch at the checkpointed rate.
    mean_recovery_time: float

    @property
    def overhead_ratio(self) -> float:
        """Fraction of throughput the checkpoint cadence costs (0 = free)."""
        if self.baseline_throughput <= 0.0:
            return 0.0
        return 1.0 - self.throughput / self.baseline_throughput


def predict_checkpoint(
    topology: Topology,
    checkpoint: Optional["CheckpointConfig"] = None,
    interval_items: Optional[int] = None,
    snapshot_overhead: Optional[float] = None,
    source_rate: Optional[float] = None,
    solver: Optional["SteadyStateSolver"] = None,
) -> CheckpointPrediction:
    """Predict what aligned-barrier checkpointing costs in throughput.

    Cost model: the source emits a barrier every ``interval_items``
    items, so barriers cross every operator at rate ``λ_src /
    interval``.  Each crossing pauses the operator for
    ``snapshot_overhead`` seconds (state capture happens on the actor
    thread, between items).  Amortized per processed tuple, operator
    *v* with arrival rate ``λ_v`` pays a service-time tax of
    ``snapshot_overhead · λ_src / (interval · λ_v)`` — operators late
    in a selective pipeline see few tuples per barrier and pay
    proportionally more per tuple.  The derated topology is re-solved
    to get the checkpointed throughput, mirroring how
    :func:`predict_batching` prices the mailbox hop (and how the
    simulator's ``SimulationConfig.checkpoint_interval`` derates its
    stations, keeping the two backends comparable).

    Parameters come from ``checkpoint`` (a
    :class:`~repro.core.graph.CheckpointConfig`), from the explicit
    ``interval_items``/``snapshot_overhead`` overrides, or from
    ``topology.checkpoint``, in that order of precedence.
    """
    from repro.core.graph import CheckpointConfig

    config = checkpoint or topology.checkpoint
    if interval_items is None:
        interval_items = (config.interval_items if config is not None
                          else CheckpointConfig().interval_items)
    if snapshot_overhead is None:
        snapshot_overhead = (config.snapshot_overhead if config is not None
                             else 0.0)
    if interval_items < 1:
        raise TopologyError(
            f"checkpoint interval must be >= 1, got {interval_items}")
    if snapshot_overhead < 0.0:
        raise TopologyError(
            f"snapshot overhead must be non-negative, "
            f"got {snapshot_overhead}")
    solver = solver or DEFAULT_SOLVER

    baseline = solver.analyze(topology, source_rate=source_rate)
    emission = baseline.rates[topology.source].departure_rate
    barrier_rate = emission / interval_items

    taxes: Dict[str, float] = {}
    specs = []
    for spec in topology.operators:
        rates = baseline.rates[spec.name]
        arrival = (emission if spec.name == topology.source
                   else rates.arrival_rate)
        tax = 0.0
        if snapshot_overhead > 0.0 and arrival > 0.0:
            tax = snapshot_overhead * barrier_rate / arrival
            spec = spec.with_service_time(spec.service_time + tax)
        taxes[spec.name] = tax
        specs.append(spec)
    if snapshot_overhead > 0.0:
        checked = solver.analyze(Topology(specs, topology.edges),
                                 source_rate=source_rate)
        throughput = checked.throughput
    else:
        throughput = baseline.throughput

    mean_replay_items = interval_items / 2.0
    restore_cost = snapshot_overhead * len(topology.names)
    replay_time = (mean_replay_items / throughput if throughput > 0.0
                   else float("inf"))
    return CheckpointPrediction(
        interval_items=interval_items,
        snapshot_overhead=snapshot_overhead,
        baseline_throughput=baseline.throughput,
        throughput=throughput,
        vertex_taxes=tuple((name, taxes[name]) for name in topology.names),
        mean_replay_items=mean_replay_items,
        mean_recovery_time=restore_cost + replay_time,
    )


#: Process-wide default solver: every module of the optimizer pipeline
#: shares it so candidate evaluation, auto-fusion rounds and the
#: conformance harness all hit one memo (worker processes of a parallel
#: sweep each get their own copy via fork/spawn).
DEFAULT_SOLVER = SteadyStateSolver()


def analyze_cached(topology: Topology, **kwargs) -> SteadyStateResult:
    """Memoized :func:`repro.core.steady_state.analyze` (default solver)."""
    return DEFAULT_SOLVER.analyze(topology, **kwargs)


def analyze_edit(base: Topology, edited: Topology,
                 **kwargs) -> SteadyStateResult:
    """Incremental analysis of an edited topology (default solver)."""
    return DEFAULT_SOLVER.analyze_edit(base, edited, **kwargs)


def clear_cache() -> None:
    """Drop every memoized solve of the default solver."""
    DEFAULT_SOLVER.clear()
