"""Operator fusion (paper Section 3.3, Algorithm 3).

Fusion replaces a sub-graph of under-utilized operators with a single
semantically equivalent operator executed by one runtime entity.  The
candidate sub-graph must have a *single front-end* (a unique member
receiving edges from outside the sub-graph) and its contraction must
keep the topology acyclic.

The service time of the fused operator is the expectation, over the
paths an item travels inside the sub-graph, of the aggregate service
time of the path (Definition 2): the recursion of Algorithm 3 is

    W(i) = T_i + g_i * sum over internal edges (i, j) of p(i,j) * W(j)

where ``g_i`` is the gain (output over input selectivity) of member
``i``.  With unit selectivities this is exactly the paper's
``fusionRate()`` — note that the paper's pseudo-code accumulates only
the successors' times, but Definition 2 requires the visited vertex's
own time too, which we include.

The exit behaviour of the fused operator is summarized by the expected
number of items leaving to each external target per item entering the
front-end; the total becomes the output selectivity of the fused
operator and the normalized shares become its edge probabilities, which
also implements the paper's "merged edges with joint probability".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.core.graph import (
    META_OPERATOR_CLASS,
    Edge,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)
from repro.core.solver import analyze_cached, analyze_edit
from repro.core.steady_state import SteadyStateResult


class FusionError(TopologyError):
    """Raised when a sub-graph violates the fusion constraints."""


@dataclass(frozen=True)
class FusionPlan:
    """A validated fusion candidate, ready to be applied.

    Attributes
    ----------
    members:
        Names of the fused operators.
    front_end:
        The unique member receiving items from outside the sub-graph.
    internal_edges:
        Edges connecting members, needed by the runtime meta-operator
        (Algorithm 4) to route items inside the fused sub-graph.
    member_edges:
        *All* out-edges of the members (internal and exiting), with the
        original probabilities — the complete routing table the
        meta-operator samples from.
    service_time:
        Expected service time of the fused operator per entering item.
    exit_rates:
        Expected items delivered to each external target per entering
        item (before normalization).
    fused_name:
        Name of the replacement operator.
    """

    members: Tuple[str, ...]
    front_end: str
    internal_edges: Tuple[Edge, ...]
    member_edges: Tuple[Edge, ...]
    service_time: float
    exit_rates: Mapping[str, float]
    fused_name: str

    @property
    def output_selectivity(self) -> float:
        return sum(self.exit_rates.values())

    @property
    def edge_probabilities(self) -> Dict[str, float]:
        """Normalized routing probabilities of the fused operator."""
        total = self.output_selectivity
        if total <= 0.0:
            return {}
        return {target: rate / total for target, rate in self.exit_rates.items()}


@dataclass(frozen=True)
class FusionResult:
    """Outcome of applying a fusion plan to a topology."""

    original: Topology
    fused: Topology
    plan: FusionPlan
    analysis_before: SteadyStateResult
    analysis_after: SteadyStateResult

    @property
    def throughput_before(self) -> float:
        return self.analysis_before.throughput

    @property
    def throughput_after(self) -> float:
        return self.analysis_after.throughput

    @property
    def impairs_performance(self) -> bool:
        """Whether the fusion makes the fused operator a new bottleneck.

        This is the alert the tool raises (Section 5.4, Table 2).
        """
        return self.throughput_after < self.throughput_before * (1.0 - 1e-9)

    @property
    def degradation(self) -> float:
        """Fraction of throughput lost by fusing (0 when harmless)."""
        if self.throughput_before <= 0.0:
            return 0.0
        loss = 1.0 - self.throughput_after / self.throughput_before
        return max(0.0, loss)


def find_front_end(topology: Topology, members: Sequence[str]) -> str:
    """The unique member with an input edge from outside the sub-graph."""
    selected = set(members)
    front_ends = sorted(
        name
        for name in selected
        if any(e.source not in selected for e in topology.in_edges(name))
    )
    if len(front_ends) != 1:
        raise FusionError(
            f"fusion sub-graph must have exactly one front-end, found "
            f"{front_ends or 'none'}"
        )
    return front_ends[0]


def validate_fusion(topology: Topology, members: Sequence[str]) -> str:
    """Check the structural fusion constraints; returns the front-end.

    Constraints (Section 3.3): at least two members, none of which is
    the source; a unique front-end; every member reachable from the
    front-end through intra-sub-graph edges (otherwise the member would
    never execute inside the fused operator); and the contracted
    topology must stay acyclic.
    """
    selected = set(members)
    if len(selected) != len(members):
        raise FusionError("fusion sub-graph contains duplicate members")
    if len(selected) < 2:
        raise FusionError("fusion needs at least two operators")
    for name in members:
        if name not in topology:
            raise FusionError(f"unknown operator {name!r} in fusion sub-graph")
    if topology.source in selected:
        raise FusionError("the source operator cannot be fused")

    front_end = find_front_end(topology, members)

    reachable = {front_end}
    stack = [front_end]
    while stack:
        current = stack.pop()
        for edge in topology.out_edges(current):
            if edge.target in selected and edge.target not in reachable:
                reachable.add(edge.target)
                stack.append(edge.target)
    unreachable = sorted(selected - reachable)
    if unreachable:
        raise FusionError(
            f"members not reachable from the front-end inside the "
            f"sub-graph: {unreachable}"
        )

    _check_contraction_acyclic(topology, selected)
    return front_end


def _check_contraction_acyclic(topology: Topology, selected: FrozenSet[str]) -> None:
    """Reject sub-graphs whose contraction would create a cycle.

    A cycle appears iff some external path leaves the sub-graph and
    re-enters it, i.e. an external vertex is reachable from a member
    through external vertices and has an edge back into the sub-graph.
    """
    selected = frozenset(selected)
    # External vertices reachable from the sub-graph without re-entering it.
    stack = [
        edge.target
        for name in selected
        for edge in topology.out_edges(name)
        if edge.target not in selected
    ]
    seen = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for edge in topology.out_edges(current):
            if edge.target in selected:
                raise FusionError(
                    "fusing this sub-graph would create a cycle through "
                    f"{current!r}"
                )
            stack.append(edge.target)


def plan_fusion(
    topology: Topology,
    members: Sequence[str],
    fused_name: Optional[str] = None,
) -> FusionPlan:
    """Validate a sub-graph and compute the fused-operator parameters."""
    front_end = validate_fusion(topology, members)
    selected = frozenset(members)
    if fused_name is None:
        fused_name = "F(" + "+".join(sorted(selected)) + ")"
    if fused_name in topology and fused_name not in selected:
        raise FusionError(f"fused operator name {fused_name!r} already in use")

    service_time = fusion_service_time(topology, selected, front_end)
    exit_rates = _exit_rates(topology, selected, front_end)
    member_edges = tuple(
        edge for edge in topology.edges if edge.source in selected
    )
    internal_edges = tuple(
        edge for edge in member_edges if edge.target in selected
    )
    return FusionPlan(
        members=tuple(sorted(selected)),
        front_end=front_end,
        internal_edges=internal_edges,
        member_edges=member_edges,
        service_time=service_time,
        exit_rates=exit_rates,
        fused_name=fused_name,
    )


def fusion_service_time(
    topology: Topology,
    members: FrozenSet[str],
    front_end: str,
) -> float:
    """Expected service time per item entering the fused sub-graph.

    Implements the Algorithm 3 recursion, generalized with selectivity
    gains; memoized over members (the sub-graph is acyclic so the
    recursion is well founded).
    """
    memo: Dict[str, float] = {}

    def walk(name: str) -> float:
        if name in memo:
            return memo[name]
        spec = topology.operator(name)
        total = spec.service_time
        for edge in topology.out_edges(name):
            if edge.target in members:
                total += spec.gain * edge.probability * walk(edge.target)
        memo[name] = total
        return total

    return walk(front_end)


def _exit_rates(
    topology: Topology,
    members: FrozenSet[str],
    front_end: str,
) -> Dict[str, float]:
    """Expected items exiting to each external target per entering item."""
    # Expected arrivals at each member per item entering the front-end,
    # propagated along the (acyclic) internal edges in topological order.
    # ``members`` is a set: walking it instead would make the order of
    # the exits, and of the float additions behind each, depend on
    # PYTHONHASHSEED.
    arrivals = {name: 0.0 for name in members}
    arrivals[front_end] = 1.0
    exits: Dict[str, float] = {}
    for name in topology.topological_order():
        if name not in members:
            continue
        outflow = arrivals[name] * topology.operator(name).gain
        for edge in topology.out_edges(name):
            flow = outflow * edge.probability
            if edge.target in members:
                arrivals[edge.target] += flow
            else:
                exits[edge.target] = exits.get(edge.target, 0.0) + flow
    return exits


def apply_fusion(
    topology: Topology,
    members: Sequence[str],
    fused_name: Optional[str] = None,
    source_rate: Optional[float] = None,
    analysis: Optional[SteadyStateResult] = None,
) -> FusionResult:
    """Fuse ``members`` and evaluate the resulting topology.

    Evaluates the steady state of both the original and the fused
    topology so the caller (and the tool's GUI analog) can tell whether
    the fusion impairs performance before committing to it.  A caller
    that already analyzed ``topology`` at this ``source_rate`` can pass
    the result as ``analysis`` to skip the before-solve entirely; the
    after-solve runs incrementally (only the fused operator's downstream
    cone is re-iterated).
    """
    plan = plan_fusion(topology, members, fused_name=fused_name)
    fused = build_fused_topology(topology, plan)
    if analysis is None:
        analysis = analyze_cached(topology, source_rate=source_rate)
    after = analyze_edit(topology, fused, source_rate=source_rate)
    return FusionResult(
        original=topology,
        fused=fused,
        plan=plan,
        analysis_before=analysis,
        analysis_after=after,
    )


def flatten_fusion_plans(plans: Sequence[FusionPlan],
                         original: Topology) -> List[FusionPlan]:
    """One plan over ``original``'s operators per final fused vertex.

    Repeated fusion (:func:`repro.core.autofusion.auto_fuse` fuses
    fused vertices again) leaves plans whose members are earlier plans'
    fused vertices, which ``original`` does not know.  Each such plan is
    re-planned over the operators it stands for, in topological order,
    under its own fused name; a plan fused again later is dropped, and
    a plan over original operators only is kept as it is.
    """
    by_name = {plan.fused_name: plan for plan in plans}

    def expand(name: str) -> List[str]:
        plan = by_name.get(name)
        if plan is None:
            return [name]
        return [leaf for member in plan.members for leaf in expand(member)]

    fused_again = {member for plan in plans for member in plan.members
               if member in by_name}
    rank = {name: index
            for index, name in enumerate(original.topological_order())}
    flat: List[FusionPlan] = []
    for plan in plans:
        if plan.fused_name in fused_again:
            continue
        if fused_again.isdisjoint(plan.members):
            flat.append(plan)
            continue
        members = tuple(sorted(expand(plan.fused_name), key=rank.__getitem__))
        flat.append(replace(
            plan_fusion(original, members, fused_name=plan.fused_name),
            members=members))
    return flat


def build_fused_topology(topology: Topology, plan: FusionPlan) -> Topology:
    """Construct the topology with the sub-graph replaced by one operator.

    The fused operator is marked stateful because SpinStreams never
    applies fission to meta-operators (Section 4.2): the user fuses
    under-utilized operators, and replicating the merge would defeat its
    purpose while complicating state handling.
    """
    selected = set(plan.members)
    fused_spec = OperatorSpec(
        name=plan.fused_name,
        service_time=plan.service_time,
        state=StateKind.STATEFUL,
        input_selectivity=1.0,
        output_selectivity=plan.output_selectivity,
        operator_class=META_OPERATOR_CLASS,
    )

    operators: List[OperatorSpec] = [
        spec for spec in topology.operators if spec.name not in selected
    ]
    operators.append(fused_spec)

    edges: List[Edge] = []
    inbound: Dict[str, float] = {}
    for edge in topology.edges:
        src_in = edge.source in selected
        dst_in = edge.target in selected
        if src_in and dst_in:
            continue  # internal edge, absorbed by the fused operator
        if not src_in and dst_in:
            # External edge into the sub-graph: necessarily targets the
            # front-end (validated); redirect to the fused operator,
            # merging parallel edges from the same predecessor.
            inbound[edge.source] = inbound.get(edge.source, 0.0) + edge.probability
            continue
        if src_in and not dst_in:
            continue  # exit edges are re-created from the plan below
        edges.append(edge)

    for source, probability in inbound.items():
        edges.append(Edge(source, plan.fused_name, probability))
    for target, probability in plan.edge_probabilities.items():
        edges.append(Edge(plan.fused_name, target, probability))

    return Topology(operators, edges, name=f"{topology.name}+fused",
                    checkpoint=topology.checkpoint,
                    latency_budget=topology.latency_budget)
