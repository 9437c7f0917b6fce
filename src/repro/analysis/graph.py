"""Pass 1 — the graph verifier: structural checks before any solve.

Validates the things the paper's cost models assume (Section 3.1) and
reports violations as diagnostics instead of dying on the first one,
which is what :class:`repro.core.graph.Topology` does.  The verifier
therefore works on the *unvalidated* :class:`~repro.topology.xmlio.
TopologyDraft` layer — a validated :class:`Topology` is accepted too
(it trivially passes the structural rules; the cycle rules and the
declared-replication rule still apply).

Rules
-----
======  ========  ==========================================================
SS101   error     duplicate operator name
SS102   error     edge references an unknown operator (dangling endpoint)
SS103   error     duplicate edge between the same pair of operators
SS104   error     self-loop edge
SS105   error     no unique source (zero, or more than one, root vertex)
SS106   error     operator unreachable from the source
SS107   warning   no sink: every operator has out-edges (items never leave)
SS108   error     stochastic out-edge probability mass != 1
SS109   error     edge parameter out of range (probability outside (0, 1]
                  or NaN; buffer capacity < 1)
SS110   error     non-positive or NaN service time
SS111   error     invalid selectivity (input <= 0, output < 0, or NaN)
SS112   error     partitioned-stateful operator without a key distribution
SS113   error     invalid key distribution (non-positive frequency or
                  mass != 1)
SS114   error     static BAS deadlock: a cycle amplifies its own traffic
                  (gain x probability product >= 1) — bounded buffers
                  provably fill and no steady state exists
SS115   warning   a cycle member saturates in the steady-state fixed
                  point — the metastable BAS-deadlock regime the runtime
                  StallWatchdog detects only after deployment
SS116   warning   replication > 1 declared on a stateful operator
======  ========  ==========================================================

SS114/SS115 reuse the cyclic-analysis machinery of
:mod:`repro.core.cycles` and give the *pre-deployment* complement of
the runtime StallWatchdog: a deployment whose draft trips SS114 will
deadlock no matter how large its buffers are.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

from repro.analysis.diagnostics import (Diagnostic, LintReport, Severity,
                                        register_rules)
from repro.core.graph import StateKind, Topology, TopologyError, key_mass
from repro.topology.xmlio import DraftEdge, DraftOperator, TopologyDraft

GRAPH_RULES = tuple(f"SS1{i:02d}" for i in range(1, 17))

register_rules("graph", {
    "SS101": (Severity.ERROR, "duplicate operator name"),
    "SS102": (Severity.ERROR, "edge references an unknown operator"),
    "SS103": (Severity.ERROR, "duplicate edge between the same operators"),
    "SS104": (Severity.ERROR, "self-loop edge"),
    "SS105": (Severity.ERROR, "no unique source vertex"),
    "SS106": (Severity.ERROR, "operator unreachable from the source"),
    "SS107": (Severity.WARNING, "no sink: items never leave the topology"),
    "SS108": (Severity.ERROR, "stochastic out-edge probability mass != 1"),
    "SS109": (Severity.ERROR, "edge parameter out of range"),
    "SS110": (Severity.ERROR, "non-positive or NaN service time"),
    "SS111": (Severity.ERROR, "invalid selectivity"),
    "SS112": (Severity.ERROR,
              "partitioned-stateful operator without a key distribution"),
    "SS113": (Severity.ERROR, "invalid key distribution"),
    "SS114": (Severity.ERROR,
              "static BAS deadlock: a cycle amplifies its own traffic"),
    "SS115": (Severity.WARNING,
              "cycle member saturates in the steady-state fixed point"),
    "SS116": (Severity.WARNING,
              "replication > 1 declared on a stateful operator"),
})


def draft_of(topology: Topology) -> TopologyDraft:
    """A draft view of a validated topology (for uniform verification)."""
    operators = [
        DraftOperator(
            name=spec.name,
            service_time=spec.service_time,
            state=spec.state,
            input_selectivity=spec.input_selectivity,
            output_selectivity=spec.output_selectivity,
            replication=spec.replication,
            # Shared, not copied: verification never mutates a draft.
            key_frequencies=(spec.keys.frequencies
                             if spec.keys is not None else None),
            operator_class=spec.operator_class,
            operator_args=dict(spec.operator_args),
        )
        for spec in topology.operators
    ]
    edges = [DraftEdge(e.source, e.target, e.probability, e.capacity)
             for e in topology.edges]
    return TopologyDraft(name=topology.name, operators=operators,
                         edges=edges)


def verify_graph(
    topology: Union[Topology, TopologyDraft],
    source_rate: Optional[float] = None,
) -> LintReport:
    """Run the structural rules over a topology or draft.

    ``source_rate`` feeds the SS115 fixed-point check on cyclic drafts
    (defaults to the source's service rate, as everywhere else).
    """
    draft = (draft_of(topology) if isinstance(topology, Topology)
             else topology)
    location = draft.path
    findings: List[Diagnostic] = []

    def emit(rule: str, severity: Severity, message: str,
             subject: Optional[str] = None) -> None:
        findings.append(Diagnostic(rule=rule, severity=severity,
                                   message=message, subject=subject,
                                   location=location))

    # -- operator-local sanity (SS101, SS110, SS111, SS112, SS113, SS116)
    seen_names: Dict[str, int] = {}
    for op in draft.operators:
        seen_names[op.name] = seen_names.get(op.name, 0) + 1
    for name, count in seen_names.items():
        if count > 1:
            emit("SS101", Severity.ERROR,
                 f"operator name declared {count} times", name)

    for op in draft.operators:
        if math.isnan(op.service_time) or op.service_time <= 0.0:
            emit("SS110", Severity.ERROR,
                 f"service time must be positive, got {op.service_time}",
                 op.name)
        if math.isnan(op.input_selectivity) or op.input_selectivity <= 0.0:
            emit("SS111", Severity.ERROR,
                 f"input selectivity must be positive, got "
                 f"{op.input_selectivity}", op.name)
        if math.isnan(op.output_selectivity) or op.output_selectivity < 0.0:
            emit("SS111", Severity.ERROR,
                 f"output selectivity must be non-negative, got "
                 f"{op.output_selectivity}", op.name)
        if op.state is StateKind.PARTITIONED and op.key_frequencies is None:
            emit("SS112", Severity.ERROR,
                 "partitioned-stateful operator has no key distribution "
                 "(fission cannot partition its state)", op.name)
        if op.key_frequencies is not None:
            total = key_mass(op.key_frequencies)
            if math.isnan(total):
                bad = sorted(k for k, f in op.key_frequencies.items()
                             if math.isnan(f) or f <= 0.0)
                emit("SS113", Severity.ERROR,
                     f"non-positive key frequencies: {bad[:5]}", op.name)
            elif not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
                emit("SS113", Severity.ERROR,
                     f"key frequencies sum to {total}, expected 1",
                     op.name)
        if op.state is StateKind.STATEFUL and op.replication > 1:
            emit("SS116", Severity.WARNING,
                 f"replication {op.replication} declared on a stateful "
                 "operator; a monolithic state cannot be replicated "
                 "(paper Algorithm 2 would throttle the source instead)",
                 op.name)

    # -- edge-local sanity (SS102, SS103, SS104, SS109)
    known = set(seen_names)
    seen_pairs: Dict[tuple, int] = {}
    for edge in draft.edges:
        for endpoint in (edge.source, edge.target):
            if endpoint not in known:
                emit("SS102", Severity.ERROR,
                     f"edge references unknown operator {endpoint!r}",
                     edge.label)
        if edge.source == edge.target:
            emit("SS104", Severity.ERROR, "self-loop edge", edge.label)
        pair = (edge.source, edge.target)
        seen_pairs[pair] = seen_pairs.get(pair, 0) + 1
        if math.isnan(edge.probability) or not 0.0 < edge.probability <= 1.0:
            emit("SS109", Severity.ERROR,
                 f"routing probability must be in (0, 1], got "
                 f"{edge.probability}", edge.label)
        if edge.capacity is not None and edge.capacity < 1:
            emit("SS109", Severity.ERROR,
                 f"buffer capacity must be >= 1, got {edge.capacity}",
                 edge.label)
    for (src, dst), count in seen_pairs.items():
        if count > 1:
            emit("SS103", Severity.ERROR,
                 f"edge declared {count} times", f"{src}->{dst}")

    # -- probability mass per operator (SS108)
    totals = draft.out_mass()
    for name in sorted(totals):
        if name not in known:
            continue
        total = totals[name]
        if math.isnan(total):
            continue  # the offending edge already tripped SS109
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
            emit("SS108", Severity.ERROR,
                 f"output edge probabilities sum to {total}, expected 1",
                 name)

    # -- global structure (SS105, SS106, SS107) — meaningful only when
    # the edge endpoints resolve.
    if known and not any(d.rule in ("SS101", "SS102") for d in findings):
        incoming = {name: 0 for name in known}
        outgoing = {name: 0 for name in known}
        adjacency: Dict[str, List[str]] = {name: [] for name in known}
        for edge in draft.edges:
            if edge.source == edge.target:
                continue
            incoming[edge.target] += 1
            outgoing[edge.source] += 1
            adjacency[edge.source].append(edge.target)
        roots = sorted(name for name, deg in incoming.items() if deg == 0)
        if len(roots) != 1:
            emit("SS105", Severity.ERROR,
                 f"topology must have exactly one source, found {roots}")
        if not any(deg == 0 for deg in outgoing.values()):
            emit("SS107", Severity.WARNING,
                 "no sink: every operator has output edges, so items "
                 "never leave the topology")
        if len(roots) == 1:
            reached = set()
            stack = [roots[0]]
            while stack:
                current = stack.pop()
                if current in reached:
                    continue
                reached.add(current)
                stack.extend(adjacency[current])
            for name in sorted(known - reached):
                emit("SS106", Severity.ERROR,
                     "operator not reachable from the source", name)

            # -- cycle rules (SS114, SS115): only on structurally sound,
            # numerically sane graphs (the checks need a solvable model)
            # that have a cycle at all.
            if (not any(d.severity is Severity.ERROR for d in findings)
                    and _has_cycle(incoming, adjacency)):
                findings.extend(_cycle_rules(draft, source_rate, location))

    return LintReport(diagnostics=tuple(findings),
                      subject_name=draft.name, passes=("graph",))


def _has_cycle(incoming: Dict[str, int],
               adjacency: Dict[str, List[str]]) -> bool:
    """Whether the edge graph has a directed cycle (Kahn's algorithm:
    some vertex is never freed of in-edges)."""
    remaining = dict(incoming)
    ready = [name for name, degree in remaining.items() if degree == 0]
    freed = 0
    while ready:
        freed += 1
        for target in adjacency[ready.pop()]:
            remaining[target] -= 1
            if remaining[target] == 0:
                ready.append(target)
    return freed < len(remaining)


def _cycle_rules(draft: TopologyDraft, source_rate: Optional[float],
                 location: Optional[str]) -> List[Diagnostic]:
    """SS114/SS115: static BAS-deadlock risk of cyclic drafts."""
    from repro.core.cycles import CyclicGraph, analyze_cyclic

    try:
        graph = CyclicGraph([op.build() for op in draft.operators],
                            [e.build() for e in draft.edges],
                            name=draft.name)
    except TopologyError:
        return []

    findings: List[Diagnostic] = []
    on_cycles = ", ".join(sorted(graph.vertices_on_cycles()))
    amplification = graph.max_cycle_amplification()
    if amplification >= 1.0:
        findings.append(Diagnostic(
            rule="SS114", severity=Severity.ERROR,
            message=(f"cycle amplification {amplification:.3f} >= 1 "
                     f"through {{{on_cycles}}}: the feedback loop grows "
                     "its own traffic, bounded buffers provably fill and "
                     "a BAS deployment deadlocks"),
            subject=None, location=location,
        ))
        return findings
    try:
        result = analyze_cyclic(graph, source_rate=source_rate)
    except TopologyError:
        return findings
    saturated = result.saturated_in_cycle
    if saturated:
        findings.append(Diagnostic(
            rule="SS115", severity=Severity.WARNING,
            message=("steady-state fixed point saturates cycle member(s) "
                     f"{', '.join(saturated)}: the loop's buffers can all "
                     "fill simultaneously (metastable BAS deadlock); use "
                     "credit-based flow control or shedding on the "
                     "feedback edge"),
            subject=saturated[0], location=location,
        ))
    return findings
