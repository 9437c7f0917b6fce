"""Process-wide performance counters for the solver and the simulator.

The optimizer's search loop and the discrete-event engine are the two
hot paths of the tool; this module gives both a
:mod:`repro.runtime.metrics`-style counter object so speedups (and
regressions) are *observable* instead of anecdotal:

* :data:`SOLVER` counts steady-state solves — full fixed-point runs,
  incremental re-solves, and memo-cache hits/misses — plus the
  per-vertex work inside each topological pass;
* :data:`ENGINE` counts discrete events processed by the simulator,
  split into fast-path and slow-path completions.

Counters are plain ints mutated under the GIL (single bytecode
increments), matching the concurrency story of
:class:`repro.runtime.metrics.ActorCounters`.  ``spinstreams optimize``
and ``spinstreams conformance`` print the snapshots; ``python3 -m bench
run`` reports the solver's as the ``core.*`` per-layer counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields


@dataclass
class SolverCounters:
    """Counters of the steady-state solver (:mod:`repro.core.solver`)."""

    #: Full fixed-point solves: every vertex of every pass recomputed.
    full_solves: int = 0
    #: Incremental re-solves: only the edit's downstream cone recomputed.
    incremental_solves: int = 0
    #: Results served straight from the memo cache.
    cache_hits: int = 0
    #: Lookups that missed the memo cache (each triggers a solve).
    cache_misses: int = 0
    #: Topological passes executed (one per source-rate correction).
    passes: int = 0
    #: Vertex rate computations actually performed.
    vertices_computed: int = 0
    #: Vertex rates copied from a converged base solve instead of
    #: recomputed (the incremental solver's savings).
    vertices_reused: int = 0

    @property
    def solve_requests(self) -> int:
        """Analyses requested, however they were satisfied."""
        return self.cache_hits + self.full_solves + self.incremental_solves

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> "SolverCounters":
        return SolverCounters(**asdict(self))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def add(self, other: "SolverCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def since(self, earlier: "SolverCounters") -> "SolverCounters":
        """Counter deltas accumulated after the ``earlier`` snapshot."""
        return SolverCounters(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)
        })

    def summary(self) -> str:
        return (
            f"solver: {self.solve_requests} solves "
            f"({self.full_solves} full, {self.incremental_solves} "
            f"incremental, {self.cache_hits} cached; "
            f"hit rate {self.hit_rate:.0%}), "
            f"{self.vertices_reused}/{self.vertices_computed + self.vertices_reused} "
            f"vertex rates reused"
        )


@dataclass
class EngineCounters:
    """Counters of the discrete-event engine (:mod:`repro.sim.engine`)."""

    #: Engine.run invocations.
    runs: int = 0
    #: Discrete events processed (service/restart/failure completions).
    events: int = 0
    #: Events handled by the inlined fast path.
    fast_events: int = 0
    #: Events routed through the general (reference) completion handler.
    slow_events: int = 0

    def snapshot(self) -> "EngineCounters":
        return EngineCounters(**asdict(self))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def add(self, other: "EngineCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def since(self, earlier: "EngineCounters") -> "EngineCounters":
        """Counter deltas accumulated after the ``earlier`` snapshot."""
        return EngineCounters(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)
        })

    def summary(self) -> str:
        return (
            f"DES: {self.events:,} events in {self.runs} runs "
            f"({self.fast_events:,} fast-path, {self.slow_events:,} general)"
        )


@dataclass(frozen=True)
class PerfSnapshot:
    """Immutable copy of both counter sets at one instant."""

    solver: SolverCounters = field(default_factory=SolverCounters)
    engine: EngineCounters = field(default_factory=EngineCounters)


#: Process-wide counter instances (one per worker process in parallel
#: sweeps; the sweep driver aggregates the per-task snapshots).
SOLVER = SolverCounters()
ENGINE = EngineCounters()


def snapshot() -> PerfSnapshot:
    return PerfSnapshot(solver=SOLVER.snapshot(), engine=ENGINE.snapshot())


def reset() -> None:
    SOLVER.reset()
    ENGINE.reset()


def summary() -> str:
    return SOLVER.summary() + "\n" + ENGINE.summary()
