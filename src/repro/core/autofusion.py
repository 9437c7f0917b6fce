"""Automatic operator fusion (extension, paper §7).

The paper leaves fusion selection to the user ("fusion is not yet an
automatized process in SpinStreams") and lists automating it as future
work: "make SpinStreams able to automatically choose the best sub-graph
suitable for fusion without manual intervention".  This module
implements that loop:

1. analyze the topology and enumerate the valid fusion candidates
   (single front-end, acyclic contraction) below a utilization
   threshold;
2. keep only the *safe* candidates — those whose fused operator is
   predicted to stay below a configurable utilization headroom, so the
   merge can never become a bottleneck;
3. greedily apply the candidate that removes the most operators
   (ties: lowest predicted utilization), then re-analyze and repeat
   until no safe candidate remains.

Fused operators are themselves fusion candidates in later rounds, so
long under-utilized chains collapse across iterations.  The result
carries every applied :class:`~repro.core.fusion.FusionPlan`, ready for
the runtime and the code generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import FrozenSet, List, Mapping, Optional, Tuple

from repro.core.candidates import FusionCandidate, enumerate_candidates
from repro.core.fusion import FusionPlan, FusionResult, apply_fusion
from repro.core.graph import BatchConfig, Topology, TopologyError
from repro.core.solver import BatchingPrediction, analyze_cached, predict_batching
from repro.core.steady_state import SteadyStateResult

#: Default grid of the batch-size search — powers of two up to the
#: point where the amortized hop (``h/b``) is deep in diminishing
#: returns for any realistic hop overhead.
DEFAULT_BATCH_GRID: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class AutoFusionResult:
    """Outcome of the automatic fusion loop."""

    original: Topology
    fused: Topology
    steps: Tuple[FusionResult, ...]
    analysis: SteadyStateResult
    #: Per-edge batch sizes chosen by the optional grid search
    #: (``auto_fuse(batch_search=True)``); None when not requested.
    batching: Optional["BatchSizeChoice"] = None

    @property
    def plans(self) -> List[FusionPlan]:
        return [step.plan for step in self.steps]

    @property
    def operators_removed(self) -> int:
        """Net reduction in operator count."""
        return len(self.original) - len(self.fused)

    @property
    def throughput(self) -> float:
        return self.analysis.throughput

    @property
    def rounds(self) -> int:
        return len(self.steps)

    def executions(self, utilization_threshold: Optional[float] = None):
        """Loop-compiled vs meta-actor choice per fused vertex.

        Applies :func:`repro.codegen.fuseloop.choose_execution` to every
        applied plan using this result's final analysis (the solver
        utilization numbers) and the original topology's operator
        classes for the SS2xx purity gate.  Plans whose members are
        themselves fused vertices (multi-round collapses) conservatively
        stay on the meta-actor.  Returns ``{fused_name:
        ExecutionChoice}``.
        """
        from repro.codegen.fuseloop import (
            DEFAULT_UTILIZATION_THRESHOLD,
            choose_execution,
        )
        if utilization_threshold is None:
            utilization_threshold = DEFAULT_UTILIZATION_THRESHOLD
        return {
            plan.fused_name: choose_execution(
                plan, self.original, analysis=self.analysis,
                utilization_threshold=utilization_threshold,
            )
            for plan in self.plans
        }


@dataclass(frozen=True)
class BatchSizeChoice:
    """Outcome of the per-edge batch-size grid search.

    ``per_edge`` maps ``(source, target)`` to the chosen batch size;
    ``batched`` is the input topology with those choices materialized
    as ``Edge.batch`` overrides, ready for the runtime or the
    deployment plan.  ``prediction`` prices the final assignment.
    """

    grid: Tuple[int, ...]
    global_size: int
    per_edge: Mapping[Tuple[str, str], int]
    batched: Topology
    prediction: BatchingPrediction
    refined: bool

    @property
    def throughput(self) -> float:
        return self.prediction.throughput

    @property
    def throughput_gain(self) -> float:
        """Chosen-over-unbatched predicted throughput."""
        return self.prediction.throughput_gain


def search_batch_sizes(
    topology: Topology,
    hop_overhead: float,
    grid: Tuple[int, ...] = DEFAULT_BATCH_GRID,
    flush_timeout: Optional[float] = None,
    source_rate: Optional[float] = None,
    latency_budget: Optional[float] = None,
    refine_edges: bool = True,
    rel_improvement: float = 0.01,
) -> BatchSizeChoice:
    """Pick per-edge mailbox batch sizes from a small analytical grid.

    Two phases, both priced by :func:`~repro.core.solver.
    predict_batching` (no execution involved):

    1. **Global sweep** — evaluate every size in ``grid`` applied
       uniformly; keep the *smallest* size whose predicted throughput
       is within ``rel_improvement`` of the best (batching buys
       throughput at a latency price, so ties go to the lower-latency
       side).
    2. **Per-edge refinement** (``refine_edges``) — one coordinate-
       descent pass over the edges in topology order: re-try every grid
       size on each edge while holding the others fixed, keeping a
       change only if it improves predicted throughput by more than
       ``rel_improvement``.  This is where a hot edge earns a deeper
       batch than the cheap edges around it.

    ``latency_budget`` (seconds) rejects any assignment whose mean
    added batching delay exceeds it; the delay is priced at the
    sender's utilization (the flush is work-conserving), so a quiet
    stream admits batches a saturated one could not afford.  Edges
    carrying an explicit ``Edge.batch`` override are respected and
    never re-chosen.
    """
    if not grid:
        raise TopologyError("batch-size grid must not be empty")
    if any(size < 1 for size in grid):
        raise TopologyError(f"batch sizes must be >= 1, got {grid}")
    grid = tuple(sorted(set(grid)))

    def admissible(prediction: BatchingPrediction) -> bool:
        return (latency_budget is None
                or prediction.mean_added_latency <= latency_budget)

    def price(assignment: Mapping[Tuple[str, str], int]
              ) -> Tuple[Topology, BatchingPrediction]:
        edges = []
        for edge in topology.edges:
            size = assignment[(edge.source, edge.target)]
            if edge.batch is None:
                batch = None if size == 1 else BatchConfig(
                    size=size,
                    flush_timeout=(flush_timeout if flush_timeout is not None
                                   else BatchConfig().flush_timeout))
                edge = dc_replace(edge, batch=batch)
            edges.append(edge)
        candidate = Topology(list(topology.operators), edges,
                             name=topology.name,
                             checkpoint=topology.checkpoint,
                    latency_budget=topology.latency_budget)
        prediction = predict_batching(
            candidate, batch_size=1, hop_overhead=hop_overhead,
            flush_timeout=flush_timeout, source_rate=source_rate)
        return candidate, prediction

    free_edges = [(edge.source, edge.target) for edge in topology.edges
                  if edge.batch is None]

    # Phase 1: uniform sweep, smallest size within tolerance of best.
    swept: List[Tuple[int, Topology, BatchingPrediction]] = []
    for size in grid:
        batched, prediction = price({key: size for key in free_edges}
                                    | {(e.source, e.target): 0
                                       for e in topology.edges
                                       if e.batch is not None})
        if admissible(prediction):
            swept.append((size, batched, prediction))
    if not swept:
        raise TopologyError(
            f"no batch size in {grid} satisfies the latency budget "
            f"{latency_budget}")
    best_throughput = max(entry[2].throughput for entry in swept)
    global_size, batched, prediction = next(
        entry for entry in swept
        if entry[2].throughput >= best_throughput * (1.0 - rel_improvement))

    assignment = {key: global_size for key in free_edges}
    refined = False
    if refine_edges and len(grid) > 1:
        for key in free_edges:
            current = assignment[key]
            for size in grid:
                if size == current:
                    continue
                trial = dict(assignment)
                trial[key] = size
                trial_topology, trial_prediction = price(
                    trial | {(e.source, e.target): 0
                             for e in topology.edges
                             if e.batch is not None})
                if (admissible(trial_prediction)
                        and trial_prediction.throughput
                        > prediction.throughput * (1.0 + rel_improvement)):
                    assignment = trial
                    batched, prediction = trial_topology, trial_prediction
                    refined = True
    return BatchSizeChoice(
        grid=grid,
        global_size=global_size,
        per_edge=dict(assignment),
        batched=batched,
        prediction=prediction,
        refined=refined,
    )


def auto_fuse(
    topology: Topology,
    source_rate: Optional[float] = None,
    max_size: int = 4,
    max_utilization: float = 0.75,
    headroom: float = 0.9,
    max_rounds: int = 32,
    code_safety: bool = True,
    batch_search: bool = False,
    hop_overhead: float = 0.0,
    batch_grid: Tuple[int, ...] = DEFAULT_BATCH_GRID,
    latency_budget: Optional[float] = None,
) -> AutoFusionResult:
    """Repeatedly fuse safe under-utilized sub-graphs.

    Parameters
    ----------
    topology:
        The topology to compact.
    source_rate:
        Source generation rate for the analyses (defaults to the source
        service rate).
    max_size:
        Maximum sub-graph size considered per round (fused operators
        can be re-fused, so chains longer than this still collapse).
    max_utilization:
        Only operators below this utilization are fusion material.
    headroom:
        Safety bound on the *fused* operator's predicted utilization; a
        merge is applied only if the new operator stays below it, which
        guarantees the throughput is preserved.
    max_rounds:
        Upper bound on fusion rounds (each round strictly shrinks the
        topology, so at most ``len(topology)`` rounds can ever apply).
    code_safety:
        When true (the default), operators whose code the static
        analyzer finds impure (nondeterminism or I/O — rules SS204 and
        SS206) are kept out of every fusion: merging them would change
        their scheduling and failure isolation.
    batch_search:
        After fusion converges, run :func:`search_batch_sizes` over
        ``batch_grid`` on the fused topology and attach the chosen
        per-edge batch sizes (``result.batching``).  Requires a
        positive ``hop_overhead`` to have any effect — with a free hop
        the model correctly picks batch size 1 everywhere.
    hop_overhead:
        Per-message mailbox hop cost (seconds) priced by the batching
        model; measure it with the mailbox microbenchmarks.
    batch_grid:
        Candidate batch sizes for the search.
    latency_budget:
        Optional cap (seconds) on the mean added batching delay.
    """
    if not 0.0 < headroom <= 1.0:
        raise TopologyError(f"headroom must be in (0, 1], got {headroom}")

    impure: FrozenSet[str] = frozenset()
    if code_safety:
        from repro.analysis.opcode import impure_operators

        impure = impure_operators(topology)

    current = topology
    steps: List[FusionResult] = []
    baseline = analyze_cached(topology, source_rate=source_rate)

    # Same request structure as the naive loop (analyze every round,
    # before/after per fusion), but the memoized solver answers the
    # round-top and final requests from cache and ``apply_fusion``
    # re-solves only the fused operator's downstream cone — a round
    # costs O(edit) fixed-point work instead of O(topology).
    for _ in range(max_rounds):
        analysis = analyze_cached(current, source_rate=source_rate)
        candidates = enumerate_candidates(
            current, analysis=analysis, max_size=max_size,
            max_utilization=max_utilization, limit=None,
            exclude=impure,
        )
        choice = _pick(candidates, headroom)
        if choice is None:
            break
        result = apply_fusion(current, choice.members,
                              source_rate=source_rate, analysis=analysis)
        if result.impairs_performance:
            # The candidate scoring is an estimate; the full analysis is
            # authoritative.  Skip candidates the analysis rejects.
            safe_candidates = [
                c for c in candidates
                if c is not choice and c.predicted_utilization <= headroom
            ]
            fallback = _first_harmless(current, safe_candidates,
                                       source_rate, analysis)
            if fallback is None:
                break
            result = fallback
        steps.append(result)
        current = result.fused

    final = analyze_cached(current, source_rate=source_rate)
    if final.throughput < baseline.throughput * (1.0 - 1e-9):
        raise TopologyError(
            "auto-fusion degraded the predicted throughput; this is a bug "
            "in the candidate safety screen"
        )
    batching: Optional[BatchSizeChoice] = None
    if batch_search:
        batching = search_batch_sizes(
            current, hop_overhead, grid=batch_grid,
            source_rate=source_rate, latency_budget=latency_budget,
        )
    return AutoFusionResult(
        original=topology,
        fused=current,
        steps=tuple(steps),
        analysis=final,
        batching=batching,
    )


def _pick(candidates: List[FusionCandidate],
          headroom: float) -> Optional[FusionCandidate]:
    """Largest safe candidate; ties break on predicted utilization."""
    safe = [c for c in candidates if c.predicted_utilization <= headroom]
    if not safe:
        return None
    return min(safe, key=lambda c: (-len(c.members),
                                    c.predicted_utilization, c.members))


def _first_harmless(topology: Topology,
                    candidates: List[FusionCandidate],
                    source_rate: Optional[float],
                    analysis: SteadyStateResult) -> Optional[FusionResult]:
    """First candidate whose full evaluation confirms no degradation."""
    ordered = sorted(candidates, key=lambda c: (-len(c.members),
                                                c.predicted_utilization,
                                                c.members))
    for candidate in ordered:
        result = apply_fusion(topology, candidate.members,
                              source_rate=source_rate, analysis=analysis)
        if not result.impairs_performance:
            return result
    return None
