"""Profile-based measurement of operator costs and routing frequencies.

SpinStreams is driven by "profile-based measurements related to
processing costs of operators and the probability distributions that
model the frequency of data exchange between operators" (Section 1).
The paper points at DiSL (Java) and Mammut (C++) for this step; here
the profiler instruments a run of the actor runtime and extracts:

* the mean service time of every operator (busy time over items);
* its selectivity gain (items emitted over items processed);
* the empirical routing frequencies of its output edges.

:func:`profile_topology` runs an application "as is for a reasonable
amount of time" and returns a re-profiled :class:`Topology` ready for
the optimization algorithms, plus the raw figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.graph import Edge, OperatorSpec, Topology, TopologyError
from repro.operators.base import Operator
from repro.runtime.system import ActorSystem, OperatorFactory, RuntimeConfig


@dataclass(frozen=True)
class OperatorProfile:
    """Measured figures of one operator."""

    name: str
    items_processed: int
    mean_service_time: Optional[float]
    gain: float
    edge_frequencies: Mapping[str, float]
    service_samples: Tuple[float, ...] = ()

    @property
    def service_rate(self) -> Optional[float]:
        if self.mean_service_time is None or self.mean_service_time <= 0.0:
            return None
        return 1.0 / self.mean_service_time

    def percentile(self, q: float) -> Optional[float]:
        """Service-time percentile ``q`` in [0, 1] from the raw samples.

        Percentiles expose cost variability the mean hides (e.g. a
        window flush every N items); ``None`` without samples.
        """
        if not 0.0 <= q <= 1.0:
            raise TopologyError(f"percentile must be in [0, 1], got {q}")
        if not self.service_samples:
            return None
        ordered = sorted(self.service_samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


@dataclass(frozen=True)
class ProfileReport:
    """All operator profiles gathered in one profiling run."""

    topology: Topology
    duration: float
    profiles: Mapping[str, OperatorProfile]

    def profiled_topology(self, min_items: int = 10) -> Topology:
        """The topology re-annotated with measured costs and frequencies.

        Operators that processed fewer than ``min_items`` items keep
        their declared figures (their measurements are noise); edges
        whose empirical frequency is zero keep a small floor so the
        topology stays structurally valid.
        """
        specs: List[OperatorSpec] = []
        for spec in self.topology.operators:
            profile = self.profiles.get(spec.name)
            if (profile is None or profile.items_processed < min_items
                    or profile.mean_service_time is None):
                specs.append(spec)
                continue
            specs.append(OperatorSpec(
                name=spec.name,
                service_time=profile.mean_service_time,
                state=spec.state,
                input_selectivity=spec.input_selectivity,
                output_selectivity=profile.gain * spec.input_selectivity,
                replication=spec.replication,
                keys=spec.keys,
                operator_class=spec.operator_class,
                operator_args=spec.operator_args,
            ))

        edges: List[Edge] = []
        for spec in self.topology.operators:
            out_edges = self.topology.out_edges(spec.name)
            if not out_edges:
                continue
            profile = self.profiles.get(spec.name)
            frequencies = dict(profile.edge_frequencies) if profile else {}
            total = sum(frequencies.values())
            if total <= 0.0 or (profile and profile.items_processed < min_items):
                edges.extend(out_edges)
                continue
            floor = 1e-6
            raw = [max(frequencies.get(edge.target, 0.0) / total, floor)
                   for edge in out_edges]
            correction = 1.0 / sum(raw)
            for edge, frequency in zip(out_edges, raw):
                edges.append(Edge(edge.source, edge.target,
                                  frequency * correction))
        return Topology(specs, edges, name=f"{self.topology.name}+profiled")


def profile_topology(
    topology: Topology,
    factories: Mapping[str, OperatorFactory],
    duration: float = 2.0,
    warmup: Optional[float] = None,
    config: Optional[RuntimeConfig] = None,
    items: Optional[int] = None,
    seed: Optional[int] = None,
) -> ProfileReport:
    """Run the application unmodified and measure its operators.

    The run happens on the actor runtime with every replication degree
    forced to one (profiling measures the *initial* design, as in the
    paper's workflow) and the measured service times, gains and routing
    frequencies are extracted from the actor counters and routers.

    ``items`` switches to *deterministic exhaustion profiling*: instead
    of a wall-clock window the source generates exactly ``items`` items
    and the run measures the whole stream — no wall-clock-dependent
    window boundaries, so a seeded run replays its profile exactly
    (item counts and gains are bit-stable; service-time means inherit
    only scheduler jitter).  ``seed`` overrides the run seed in this
    mode.
    """
    base = topology.with_replications({name: 1 for name in topology.names})
    if items is not None:
        if items < 1:
            raise TopologyError(f"items must be >= 1, got {items}")
        run_config = config or RuntimeConfig()
        run_config = replace(run_config, max_items=items)
        if seed is not None:
            run_config = replace(run_config, seed=seed)
        system = ActorSystem.build(base, factories, config=run_config)
        window = _run_exhausted(system)
    else:
        system = ActorSystem.build(base, factories, config=config)
        window = system.run(duration, warmup=warmup).measurements.duration

    profiles: Dict[str, OperatorProfile] = {}
    for actor in system.actors:
        if actor.vertex != actor.actor_name:
            continue  # emitters/collectors (not present with n=1 anyway)
        counters = actor.counters
        processed = counters.processed
        mean = counters.mean_service_time()
        gain = counters.emitted / processed if processed else 1.0
        frequencies: Dict[str, float] = {}
        total = sum(actor.router.counts.values())
        if total > 0:
            frequencies = {name: count / total
                           for name, count in actor.router.counts.items()}
        profiles[actor.vertex] = OperatorProfile(
            name=actor.vertex,
            items_processed=processed,
            mean_service_time=mean,
            gain=gain,
            edge_frequencies=frequencies,
            service_samples=tuple(counters.service_samples),
        )
    return ProfileReport(
        topology=topology,
        duration=window,
        profiles=profiles,
    )


def _run_exhausted(system: ActorSystem) -> float:
    """Drive a bounded run to its end; the seconds the stream took.

    The source stops itself after ``max_items`` and ``drain`` retires
    every actor once it has processed all it will ever receive.  The
    window boundary is the item count, not the clock — the determinism
    the adaptive replay tests rely on.
    """
    started = time.perf_counter()
    system.start()
    try:
        outcome = system.drain()
        window = max(time.perf_counter() - started, 1e-9)
    finally:
        system.stop()
    if outcome != "completed":
        raise TopologyError(
            f"profiling run ended {outcome!r}: {system.failure_reason}")
    return window


class ServiceTimer:
    """Standalone stopwatch for profiling a single operator offline.

    Feed items through :meth:`measure` (outside any runtime) to estimate
    the operator's mean service time before building the XML input —
    handy in notebooks and tests.
    """

    def __init__(self, operator: Operator) -> None:
        self.operator = operator
        self.samples: List[float] = []
        self.outputs = 0

    def measure(self, item: Any) -> List[Any]:
        started = time.perf_counter()
        outputs = self.operator.operator_function(item)
        self.samples.append(time.perf_counter() - started)
        self.outputs += len(outputs)
        return outputs

    @property
    def mean_service_time(self) -> float:
        if not self.samples:
            raise TopologyError("no samples measured yet")
        return sum(self.samples) / len(self.samples)

    @property
    def gain(self) -> float:
        if not self.samples:
            raise TopologyError("no samples measured yet")
        return self.outputs / len(self.samples)
