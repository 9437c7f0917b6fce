"""Adaptive conformance: live reconfigurations proven correct per seed.

The adaptive controller (:mod:`repro.runtime.adaptive`) claims three
properties, and this module turns each into a seeded, replayable check:

* **It adapts, correctly** — :func:`check_adaptive_seed` runs a seeded
  wall-clock topology under a mid-run service-time shift (the workload
  phase change).  The controller must fire, converge within the tick
  budget, and the *post-reconfiguration* measured steady state must
  match the freshly re-solved analytical model of the shifted topology
  with the replicas the controller actually deployed — the same oracle
  and tolerances the static four-way conformance uses.
* **It moves state without losing tuples** — :func:`check_migration_seed`
  reuses the differential chain testbeds: a run interleaved with
  drain-and-migrate tickets (standalone actors, replicated ensembles
  and fused meta-operator members alike) must produce sink output
  **bit-equal** to the undisturbed run.  Stateful members (windowed
  aggregates, collecting sinks) make this a real state-carrying
  migration, not a stateless swap.
* **It does nothing on a stationary workload** —
  :func:`check_stationary_seed` is the negative control: no shift, so
  any reconfiguration is thrashing and fails the seed.

:func:`check_adaptive_chaos_seed` adds the interaction hazard: crash
and slowdown faults injected *while* the controller reconfigures.
Supervision restarts and controller rescales must not fight — the run
has to keep making progress (the stall watchdog is armed), stop
cleanly, and keep dead letters bounded by the injected faults.

Determinism: the shift vertex and factor are chosen analytically from
the seed (the smallest slowdown factor that makes the re-solved plan
require replication), the controller is driven tick by tick from this
thread (no controller thread), and every estimator window is item-count
based — so a seed's decision *sequence* replays; only service-time
measurements inherit scheduler jitter, which the model tolerances
absorb.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.fission import eliminate_bottlenecks
from repro.core.fusion import apply_fusion
from repro.core.graph import Topology, TopologyError
from repro.core.solver import analyze_cached
from repro.faults.plan import CrashFault, FaultPlan, SlowdownFault
from repro.operators.source_sink import GeneratorSource
from repro.profiling.online import EstimatorConfig
from repro.runtime.actors import OperatorActor, SourceActor
from repro.runtime.adaptive import AdaptiveConfig, AdaptiveController
from repro.runtime.meta import MetaOperatorActor
from repro.runtime.metrics import (
    ActorRates,
    CounterSnapshot,
    RuntimeMeasurements,
    rates_between,
)
from repro.runtime.supervision import (
    Directive,
    SupervisionPolicy,
    SupervisorStrategy,
)
from repro.runtime.synthetic import (
    AdjustablePaddedOperator,
    GainOperator,
    ServiceTimeControl,
)
from repro.runtime.system import ActorSystem, RuntimeConfig
from repro.testing.differential import (
    DifferentialConfig,
    DifferentialReport,
    _compare,
    finish_capture,
    run_capture,
    topology_factories,
)
from repro.testing.harness import (
    ConformanceConfig,
    sleep_overshoot,
    topology_for_seed,
)
from repro.testing.oracle import ConformanceReport, Discrepancy, Oracle


@dataclass(frozen=True)
class AdaptiveScenarioConfig:
    """Knobs of one seeded adaptation scenario (tier-1 budget defaults)."""

    #: Seconds between manually driven controller ticks.
    control_period: float = 0.25
    #: Estimator windowing: ``min_items`` is low because the runtime
    #: topologies run at 125-250 items/s and deep branches see a
    #: fraction of that; the x3+ injected drift dwarfs the extra noise.
    estimator: EstimatorConfig = field(default_factory=lambda: EstimatorConfig(
        window_ticks=5, min_items=15, change_threshold=0.25))
    cooldown_ticks: int = 2
    #: Pre-shift ticks (controller observes the declared regime).
    warmup_ticks: int = 3
    #: Post-shift tick budget: the controller must fire *and* settle
    #: within this many control periods (the convergence bound K).
    max_ticks: int = 28
    #: Consecutive quiet (non-cooldown, non-fired) ticks = converged.
    settle_ticks: int = 4
    #: Escalating slowdown factors tried when picking the shift vertex;
    #: the smallest factor whose re-solved plan needs replication wins.
    slowdown_factors: Tuple[float, ...] = (3.0, 5.0, 8.0, 12.0)
    #: Steady-state measurement window after convergence.
    measure_duration: float = 1.5
    #: Deadline for the pre-measurement backlog drain (see
    #: :func:`_wait_backlog_drain`).
    drain_timeout: float = 8.0
    mailbox_capacity: int = 16
    #: Post-warmup ticks of the stationary (negative-control) check.
    stationary_ticks: int = 5

    def adaptive_config(self) -> AdaptiveConfig:
        return AdaptiveConfig(
            control_period=self.control_period,
            estimator=self.estimator,
            cooldown_ticks=self.cooldown_ticks,
        )


@dataclass
class _Scenario:
    """One built-but-not-started adaptation scenario."""

    topology: Topology
    system: ActorSystem
    controller: AdaptiveController
    controls: Dict[str, ServiceTimeControl]
    shift_vertex: str
    shift_factor: float
    offered_rate: float

    @property
    def shifted_topology(self) -> Topology:
        """The topology as the workload actually behaves post-shift."""
        spec = self.topology.operator(self.shift_vertex)
        return self.topology.with_operator(
            spec.with_service_time(spec.service_time * self.shift_factor))


def choose_shift(topology: Topology, offered_rate: float,
                 seed: int,
                 factors: Tuple[float, ...] = (3.0, 5.0, 8.0, 12.0),
                 ) -> Tuple[str, float]:
    """The seed's deterministic phase shift: ``(vertex, factor)``.

    Scans escalating slowdown factors and picks (seeded-random) among
    the non-source vertices whose re-solved plan requires replication
    once slowed by that factor — guaranteeing the shift creates a real
    bottleneck the controller *must* resolve, at the smallest factor
    that does so.  Purely analytical, so the scenario is known before
    any thread starts.
    """
    for factor in factors:
        candidates = []
        for name in topology.names:
            if name == topology.source:
                continue
            spec = topology.operator(name)
            slowed = topology.with_operator(
                spec.with_service_time(spec.service_time * factor))
            result = eliminate_bottlenecks(
                slowed, source_rate=offered_rate, code_safety="off")
            if result.replications.get(name, 1) > 1:
                candidates.append(name)
        if candidates:
            rng = random.Random(seed * 9973 + 7)
            return candidates[rng.randrange(len(candidates))], factor
    raise TopologyError(
        f"no vertex of {topology.name!r} becomes a bottleneck under "
        f"factors {factors} at rate {offered_rate:g}/s")


def build_scenario(seed: int,
                   config: Optional[ConformanceConfig] = None,
                   scenario: Optional[AdaptiveScenarioConfig] = None,
                   fault_plan: Optional[FaultPlan] = None,
                   supervisor: Optional[SupervisorStrategy] = None,
                   ) -> _Scenario:
    """Build the seed's elastic system + controller (not started).

    Operators are :class:`AdjustablePaddedOperator` around deterministic
    gain realizers, sharing one :class:`ServiceTimeControl` per vertex
    with the test driver — the knob the phase shift turns mid-run.
    Padding targets subtract the host's calibrated sleep overshoot so
    measured service times track the declared (and shifted) figures.
    """
    config = config or ConformanceConfig()
    scenario = scenario or AdaptiveScenarioConfig()
    topology = topology_for_seed(seed, config,
                                 generator=config.runtime_generator_config())
    offered_rate = topology.operator(topology.source).service_rate
    shift_vertex, shift_factor = choose_shift(
        topology, offered_rate, seed, scenario.slowdown_factors)

    overshoot = sleep_overshoot()
    controls: Dict[str, ServiceTimeControl] = {}
    factories: Dict[str, Callable] = {}
    for spec in topology.operators:
        if spec.name == topology.source:
            factories[spec.name] = lambda s=seed: GeneratorSource(seed=s)
            continue
        control = ServiceTimeControl(
            max(spec.service_time - overshoot, 1e-4))
        controls[spec.name] = control
        factories[spec.name] = lambda g=spec.gain, c=control: (
            AdjustablePaddedOperator(GainOperator(g), c))

    runtime = RuntimeConfig(
        elastic=True,
        mailbox_capacity=scenario.mailbox_capacity,
        source_rate=offered_rate,
        seed=seed,
        fault_plan=fault_plan,
        supervisor=supervisor,
    )
    system = ActorSystem.build(topology, factories, config=runtime)
    controller = AdaptiveController(system, topology,
                                    scenario.adaptive_config())
    return _Scenario(
        topology=topology,
        system=system,
        controller=controller,
        controls=controls,
        shift_vertex=shift_vertex,
        shift_factor=shift_factor,
        offered_rate=offered_rate,
    )


def apply_shift(sc: _Scenario) -> None:
    """Turn the knob: the shift vertex now costs ``factor`` times more.

    The new padding targets ``factor * declared - overshoot`` so the
    *realized* post-shift service time lands on the analytical figure
    the oracle compares against (a plain ``scale(factor)`` would also
    multiply the overshoot compensation and bias the model comparison
    by ``(factor - 1) * overshoot``).
    """
    declared = sc.topology.operator(sc.shift_vertex).service_time
    sc.controls[sc.shift_vertex].set(
        max(declared * sc.shift_factor - sleep_overshoot(), 1e-4))


def _drive_to_convergence(sc: _Scenario,
                          scenario: AdaptiveScenarioConfig,
                          baseline_fires: int = 0) -> int:
    """Tick the controller until it fired and settled; returns quiet ticks.

    A tick counts as quiet only once the controller has fired at least
    once *since the shift* and the tick is neither a fire nor a
    cooldown hold — i.e. the controller looked at a fresh
    post-reconfiguration window and chose to stand pat.

    ``baseline_fires`` is the fire count recorded before the shift was
    applied: chaos scenarios can legitimately trigger a pre-shift
    reconfiguration (a warmup-window slowdown fault), and settling on
    that stale fire would end the loop before the windowed estimators
    have seen enough post-shift samples to force the rescale.
    """
    quiet = 0
    for _ in range(scenario.max_ticks):
        time.sleep(scenario.control_period)
        decision = sc.controller.tick()
        if decision.fired:
            quiet = 0
        elif (len(sc.controller.fired_decisions) > baseline_fires
              and not decision.reason.startswith("cooldown")):
            quiet += 1
            if quiet >= scenario.settle_ticks:
                break
    return quiet


def _wait_backlog_drain(system: ActorSystem, timeout: float,
                        poll: float = 0.05) -> bool:
    """Wait until the queues parked during the saturated phase drain.

    While the shifted vertex was under-provisioned, every mailbox on
    its path filled up; after the controller resolves the bottleneck,
    that backlog flushes at the new plan's *surplus* capacity — a
    transient above-steady-state flow that would bias a measurement
    window opened too early.  Steady state under a non-saturated plan
    keeps queues near empty, so a small system-wide occupancy is the
    drain-complete signal.  Returns ``False`` on timeout (a plan the
    re-solve left saturated keeps a standing queue — the model predicts
    capacity-limited rates there, so measuring anyway is sound).
    """
    mailboxes = list(system.mailboxes.values())
    bound = max(4.0, 0.5 * len(mailboxes))
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if sum(len(mailbox) for mailbox in mailboxes) <= bound:
            return True
        time.sleep(poll)
    return False


def _measure_window(system: ActorSystem, duration: float,
                    ) -> Tuple[Dict[str, ActorRates], float]:
    """Per-vertex steady-state rates over one quiescent window.

    Unlike :meth:`RuntimeMeasurements.vertex_rates` on a full
    ``ActorSystem.run``, only operator-executing actors (source,
    replicas, meta) are sampled: elastic ensembles put an emitter and a
    collector on every vertex, and their forwarding counters would
    triple-count each tuple.  Retired replicas contribute zero deltas
    (their counters froze when they drained).
    """
    actors = [actor for actor in list(system.actors)
              if isinstance(actor, (SourceActor, OperatorActor,
                                    MetaOperatorActor))]
    before = {actor.actor_name: actor.counters.snapshot()
              for actor in actors}
    started = time.perf_counter()
    time.sleep(duration)
    window = max(time.perf_counter() - started, 1e-9)
    rates = {
        actor.actor_name: rates_between(
            actor.actor_name, actor.vertex,
            before.get(actor.actor_name, CounterSnapshot()),
            actor.counters.snapshot(), window)
        for actor in actors
    }
    return RuntimeMeasurements(duration=window,
                               actors=rates).vertex_rates(), window


def _path_probabilities(topology: Topology) -> Dict[str, float]:
    """Fraction of source items whose routing reaches each vertex.

    The product of edge probabilities along the path(s) from the
    source, i.e. the thinning the probabilistic routers apply before a
    vertex ever sees an item.  Selectivity gains are deliberately
    excluded: a flatmap multiplies item *counts* deterministically
    without adding independent routing samples.
    """
    probabilities = {topology.source: 1.0}
    for name in topology.topological_order():
        if name == topology.source:
            continue
        probabilities[name] = min(1.0, sum(
            probabilities.get(edge.source, 0.0) * edge.probability
            for edge in topology.in_edges(name)))
    return probabilities


def _routing_noise(probability: float, source_items: float) -> float:
    """3-sigma relative noise of a realized routing fraction.

    A vertex behind a probabilistic split sees ``Binomial(N, p)`` of
    the window's ``N`` source items; the realized fraction deviates
    from ``p`` with relative standard deviation ``sqrt((1-p)/(p*N))``.
    The model predicts rates at the *declared* ``p``, so a measurement
    window this short legitimately lands a few sigma away on rare
    branches — tolerance the per-vertex departure check must absorb.
    """
    if probability >= 1.0 or probability <= 0.0 or source_items <= 0.0:
        return 0.0
    return 3.0 * math.sqrt(
        (1.0 - probability) / (probability * source_items))


def _absorb_routing_noise(report: ConformanceReport, topology: Topology,
                          offered_rate: float,
                          window: float) -> ConformanceReport:
    """Drop departure discrepancies explained by split-sampling noise."""
    probabilities = _path_probabilities(topology)
    source_items = offered_rate * window
    kept = []
    for discrepancy in report.discrepancies:
        if discrepancy.kind == "departure-rate":
            noise = _routing_noise(
                probabilities.get(discrepancy.operator, 1.0), source_items)
            if noise > 0.0 and discrepancy.error <= \
                    discrepancy.tolerance + noise:
                continue
        kept.append(discrepancy)
    if len(kept) == len(report.discrepancies):
        return report
    return replace(report, discrepancies=tuple(kept))


def _hygiene(system: ActorSystem, leaked: List[str]) -> List[Discrepancy]:
    """Fault-free hygiene gates shared by the adaptive checks."""
    extra: List[Discrepancy] = []
    dropped = sum(snapshot.dropped
                  for snapshot in system.snapshot().values())
    if dropped:
        extra.append(Discrepancy(
            kind="dropped-messages", operator="<runtime>",
            expected=0.0, actual=float(dropped), tolerance=0.0))
    if leaked:
        extra.append(Discrepancy(
            kind="thread-leak", operator=",".join(leaked),
            expected=0.0, actual=float(len(leaked)), tolerance=0.0))
    return extra


def check_adaptive_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
    scenario: Optional[AdaptiveScenarioConfig] = None,
    decision_sink: Optional[List[Dict]] = None,
) -> ConformanceReport:
    """The decisive adaptation oracle for one seed.

    Timeline: warmup ticks under the declared regime → service-time
    shift on the seed's chosen vertex → controller ticks until it fires
    and settles (bounded by ``max_ticks``) → one quiescent measurement
    window.  The measured steady state must match
    ``analyze_cached(shifted topology with the deployed replicas)``
    within the runtime tolerances; not firing, not settling, dropped
    tuples and leaked threads are hard discrepancies on top.

    ``decision_sink``, when given, receives one JSON-ready entry per
    seed with the scenario parameters and the full controller decision
    log (the nightly CI artifact).
    """
    config = config or ConformanceConfig()
    scenario = scenario or AdaptiveScenarioConfig()
    sc = build_scenario(seed, config, scenario)
    system, controller = sc.system, sc.controller
    extra: List[Discrepancy] = []
    try:
        system.start()
        for _ in range(scenario.warmup_ticks):
            time.sleep(scenario.control_period)
            controller.tick()
        pre_shift_fires = len(controller.fired_decisions)
        apply_shift(sc)
        quiet = _drive_to_convergence(sc, scenario)
        fired = len(controller.fired_decisions) - pre_shift_fires
        if fired == 0:
            extra.append(Discrepancy(
                kind="controller-not-fired", operator=sc.shift_vertex,
                expected=1.0, actual=0.0, tolerance=0.0))
        elif quiet < scenario.settle_ticks:
            extra.append(Discrepancy(
                kind="controller-not-converged", operator=sc.shift_vertex,
                expected=float(scenario.settle_ticks),
                actual=float(quiet), tolerance=0.0))
        deployed = {name: system.replication_of(name)
                    for name in sc.topology.names}
        predicted = analyze_cached(
            sc.shifted_topology.with_replications(deployed),
            source_rate=sc.offered_rate)
        _wait_backlog_drain(system, scenario.drain_timeout)
        measured, window = _measure_window(system,
                                           scenario.measure_duration)
        report = Oracle(config.runtime_tolerances).compare(
            predicted, measured, window,
            backend="adaptive+runtime", seed=seed,
            check_utilization=False, check_bottlenecks=False)
        report = _absorb_routing_noise(report, sc.topology,
                                       sc.offered_rate, window)
    finally:
        leaked = system.stop()
    extra.extend(_hygiene(system, leaked))
    if extra:
        report = replace(report,
                         discrepancies=report.discrepancies + tuple(extra))
    if decision_sink is not None:
        decision_sink.append({
            "seed": seed,
            "topology": sc.topology.name,
            "shift_vertex": sc.shift_vertex,
            "shift_factor": sc.shift_factor,
            "offered_rate": sc.offered_rate,
            "ok": report.ok,
            "decisions": controller.decision_log(),
        })
    return report


def check_stationary_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
    scenario: Optional[AdaptiveScenarioConfig] = None,
) -> ConformanceReport:
    """Negative control: no shift → the controller must never fire.

    Any reconfiguration on a stationary workload is thrashing — the
    anti-noise gates (confidence floor, change threshold, gain margin)
    exist precisely to prevent it, and this check is what holds them to
    that across seeds.
    """
    config = config or ConformanceConfig()
    scenario = scenario or AdaptiveScenarioConfig()
    sc = build_scenario(seed, config, scenario)
    system, controller = sc.system, sc.controller
    try:
        system.start()
        ticks = scenario.warmup_ticks + scenario.stationary_ticks
        for _ in range(ticks):
            time.sleep(scenario.control_period)
            controller.tick()
    finally:
        leaked = system.stop()
    extra: List[Discrepancy] = []
    if controller.fired_decisions:
        fired = controller.fired_decisions
        extra.append(Discrepancy(
            kind="spurious-reconfiguration",
            operator=";".join(
                action.vertex for decision in fired
                for action in decision.actions) or "<none>",
            expected=0.0, actual=float(len(fired)), tolerance=0.0))
    if system.reconfigurations:
        extra.append(Discrepancy(
            kind="spurious-reconfiguration", operator="<system>",
            expected=0.0, actual=float(system.reconfigurations),
            tolerance=0.0))
    extra.extend(_hygiene(system, leaked))
    return ConformanceReport(
        topology_name=sc.topology.name,
        backend="adaptive+stationary",
        seed=seed,
        discrepancies=tuple(extra),
        window=scenario.control_period * (scenario.warmup_ticks
                                          + scenario.stationary_ticks),
    )


def check_adaptive_chaos_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
    scenario: Optional[AdaptiveScenarioConfig] = None,
) -> ConformanceReport:
    """Faults injected *during* reconfiguration must not fight the loop.

    The seed's shift vertex gets deterministic crash faults (supervision
    restarts the replica) and another vertex a slowdown window, timed to
    land while the controller is scaling.  Gates are liveness and
    hygiene, not model agreement (a restarting replica legitimately
    perturbs the rates): the controller still fires, the stall watchdog
    never declares a livelock, the system stops cleanly, and dead
    letters stay bounded by the injected crash count — supervision and
    the controller never escalate each other into losing the stream.
    """
    config = config or ConformanceConfig()
    scenario = scenario or AdaptiveScenarioConfig()
    base = build_scenario(seed, config, scenario)

    rng = random.Random(seed * 7103 + 13)
    others = [name for name in base.topology.names
              if name not in (base.topology.source, base.shift_vertex)]
    slow_vertex = others[rng.randrange(len(others))] if others \
        else base.shift_vertex
    plan = FaultPlan(
        seed=seed,
        crashes=(
            CrashFault(vertex=base.shift_vertex,
                       item_index=rng.randrange(20, 50)),
            CrashFault(vertex=base.shift_vertex,
                       item_index=rng.randrange(60, 120)),
        ),
        slowdowns=(
            SlowdownFault(vertex=slow_vertex,
                          start_item=rng.randrange(10, 40),
                          end_item=rng.randrange(80, 160),
                          factor=2.0),
        ),
    )
    strategy = SupervisorStrategy(default=SupervisionPolicy(
        on_crash=Directive.RESTART,
        max_restarts=1_000_000,
        window=600.0,
        backoff_base=0.05,
        backoff_factor=1.0,
        backoff_max=0.05,
    ))
    sc = build_scenario(seed, config, scenario,
                        fault_plan=plan, supervisor=strategy)
    system, controller = sc.system, sc.controller
    try:
        system.start()
        for _ in range(scenario.warmup_ticks):
            time.sleep(scenario.control_period)
            controller.tick()
        pre_shift_fires = len(controller.fired_decisions)
        apply_shift(sc)
        _drive_to_convergence(sc, scenario, baseline_fires=pre_shift_fires)
        fired = len(controller.fired_decisions) - pre_shift_fires
    finally:
        leaked = system.stop()
    extra: List[Discrepancy] = []
    if fired == 0:
        extra.append(Discrepancy(
            kind="controller-not-fired", operator=sc.shift_vertex,
            expected=1.0, actual=0.0, tolerance=0.0))
    if system.failure_reason is not None:
        extra.append(Discrepancy(
            kind="runtime-failure", operator=system.failure_reason,
            expected=0.0, actual=1.0, tolerance=0.0))
    if leaked:
        extra.append(Discrepancy(
            kind="thread-leak", operator=",".join(leaked),
            expected=0.0, actual=float(len(leaked)), tolerance=0.0))
    # Each injected crash consumes exactly one item per replica clock;
    # replicas spawned by scale-ups carry fresh clocks, so the bound is
    # crashes x replicas-ever-started plus slowdown-window noise.  A
    # supervision/controller fight (repeated restart storms, drained
    # mailboxes dumped to dead letters) blows well past it.
    replicas_ever = sum(
        1 for actor in system.actors
        if isinstance(actor, OperatorActor)
        and actor.vertex == sc.shift_vertex)
    budget = len(plan.crashes) * max(replicas_ever, 1) + 10
    dead = system.context.dead_letters.total
    if dead > budget:
        extra.append(Discrepancy(
            kind="dead-letter-storm", operator=sc.shift_vertex,
            expected=float(budget), actual=float(dead), tolerance=0.0))
    return ConformanceReport(
        topology_name=sc.topology.name,
        backend="adaptive+chaos",
        seed=seed,
        discrepancies=tuple(extra),
        window=scenario.control_period * scenario.max_ticks,
    )


# ----------------------------------------------------------------------
# zero-loss migration differentials


def _migration_vertices(topology: Topology, seed: int,
                        count: int = 3) -> List[str]:
    """Seeded migration targets (with replacement, non-source)."""
    rng = random.Random(seed * 8009 + 31)
    candidates = [name for name in topology.names
                  if name != topology.source]
    return [candidates[rng.randrange(len(candidates))]
            for _ in range(count)]


def _run_with_migrations(
    topology: Topology,
    runtime: RuntimeConfig,
    factories,
    config: DifferentialConfig,
    migrations: List[str],
    fusion_plans=(),
) -> Tuple[Dict[str, List[str]], List[str]]:
    """A ``run_capture`` twin that fires migration tickets mid-stream.

    Returns ``(canonical sink outputs, migration errors)``.  Tickets are
    spaced a few tens of milliseconds apart so they interleave with the
    paced source; each blocks until its drain-and-migrate completes, so
    the sequence serializes in-band with the data.
    """
    system = ActorSystem.build(topology, factories, config=runtime,
                               fusion_plans=fusion_plans)
    errors: List[str] = []
    system.start()
    for vertex in migrations:
        time.sleep(0.03)
        try:
            ticket = system.migrate_vertex(vertex, timeout=10.0)
        except Exception as error:  # noqa: BLE001 - report, don't hang
            errors.append(f"{vertex}: {type(error).__name__}: {error}")
            continue
        if not ticket.ok:
            errors.append(f"{vertex}: {'; '.join(ticket.errors)}")
    return finish_capture(system, config), errors


def check_migration_seed(seed: int,
                         config: Optional[DifferentialConfig] = None,
                         fused: bool = False,
                         ) -> DifferentialReport:
    """Zero tuple loss under live migration, proven by bit-equality.

    The seeded chain testbed runs twice: undisturbed, and with three
    in-band drain-and-migrate tickets fired while the (paced) source is
    still emitting.  Canonical sink outputs must be bit-equal — every
    tuple survives the "checkpoint member → move state → restore →
    resume" cycle with its value and position intact.  ``fused=True``
    fuses the member chain into a meta-operator first and migrates the
    fused vertex, exercising per-member state moves inside
    :class:`~repro.runtime.meta.MetaOperatorActor`.
    """
    from repro.testing.differential import chain_testbed

    config = config or DifferentialConfig()
    topology, members = chain_testbed(seed, config)
    factories = topology_factories(topology)
    # Pace the source so the migration tickets land mid-stream instead
    # of after a sub-100ms exhaustion burst.
    runtime = RuntimeConfig(
        mailbox_capacity=config.mailbox_capacity,
        max_items=config.items,
        seed=seed,
        watchdog=False,
        source_rate=2000.0,
    )
    if fused:
        result = apply_fusion(topology, list(members))
        executed = result.fused
        plans = (result.plan,)
        migrations = [result.plan.fused_name] * 2
        mode_b = "migrated+fused"
    else:
        executed = topology
        plans = ()
        migrations = _migration_vertices(topology, seed)
        mode_b = "migrated"

    baseline = run_capture(executed, runtime, fusion_plans=plans,
                           factories=factories, config=config)
    migrated, errors = _run_with_migrations(
        executed, runtime, factories, config, migrations,
        fusion_plans=plans)

    divergences = _compare(seed, "baseline", mode_b, baseline, migrated)
    divergences.extend(f"migration failed: {error}" for error in errors)
    return DifferentialReport(
        seed=seed, mode_a="baseline", mode_b=mode_b,
        ok=not divergences, divergences=tuple(divergences),
    )
