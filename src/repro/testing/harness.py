"""Differential conformance harness: seed -> topology -> three backends.

One seed deterministically produces one random topology (paper
Algorithm 5 via :mod:`repro.topology.random_gen`), which then runs
through up to three execution models:

* the analytical steady-state solver (the *prediction*);
* the discrete-event simulator (virtual time, exact semantics);
* the threaded actor runtime (wall-clock, sleep-padded operators).

and through the optimizer pipeline (fission then automatic fusion),
whose transformed topology must keep matching the simulator.

Two measurement details matter for tight tolerances and were tuned
empirically:

* **Horizon scaling** — ``simulate()`` sets the virtual horizon to
  ``items / raw_source_rate``.  On heavily throttled topologies that
  window is far too short: a slow operator's queue takes tens of
  virtual seconds to fill, and the pre-backpressure transient counts as
  extra throughput.  The harness instead sets the horizon to
  ``items / predicted_throughput`` with a 40% warmup, so every run
  observes a genuine steady state regardless of throttling depth.
* **Profiles** — the ``tree`` profile (in-degree <= 1) is checked at 2%
  per-operator tolerance: with a single input per vertex, head-of-line
  blocking keeps fan-out flows exactly proportional and the fluid model
  is tight.  The ``dag`` profile allows merges, where BAS FIFO wakeup
  shares a saturated vertex's capacity per-sender instead of
  per-offered-rate; that irreducible fluid-model error (the tail of the
  paper's own Figure 7) gets a 10% tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional, Tuple

from repro.core.autofusion import auto_fuse
from repro.core.fission import eliminate_bottlenecks
from repro.core.graph import Topology
from repro.core.solver import analyze_cached
from repro.core.steady_state import SteadyStateResult
from repro import instrumentation
from repro.faults.plan import ChaosProfile, FaultPlanConfig, chaos_profile
from repro.sim.network import SimulationConfig, build_engine
from repro.testing.oracle import (
    ConformanceReport,
    Discrepancy,
    Oracle,
    Tolerances,
)
from repro.topology.random_gen import GeneratorConfig, RandomTopologyGenerator

AnalyzeFn = Callable[[Topology], SteadyStateResult]

#: Stateless catalog templates used by the wall-clock runtime check:
#: their gains are realized deterministically by
#: :class:`repro.runtime.synthetic.GainOperator`, so short runs measure
#: the configured selectivities exactly instead of sampling them.
RUNTIME_TEMPLATES: Tuple[str, ...] = (
    "identity", "field_map", "arithmetic_map", "projection",
    "filter_low", "filter_high", "flatmap",
)


@dataclass(frozen=True)
class ConformanceConfig:
    """Knobs of a conformance run (defaults = tier-1 budget)."""

    profile: str = "tree"
    base_seed: int = 100
    #: Items per simulated horizon; the horizon itself is scaled by the
    #: predicted throughput (see module docstring).
    items: int = 30_000
    warmup_fraction: float = 0.4
    mailbox_capacity: int = 64
    #: Deterministic service + deficit-round-robin key routing: the
    #: regime the fluid model describes; stochastic variants are what
    #: the accuracy *experiments* explore, not what conformance gates.
    service_family: str = "deterministic"
    routing: str = "proportional"
    tolerances: Optional[Tolerances] = None
    #: Also check the optimizer pipeline (fission + autofusion) per seed.
    optimizer: bool = True
    optimizer_throughput_rel: float = 0.05
    #: Wall-clock seconds per runtime check (warmup is a quarter of it).
    runtime_duration: float = 3.0
    #: Small mailboxes keep the queue-fill transient well inside the
    #: warmup: on a deeply throttled topology a 64-slot mailbox in
    #: front of a slow operator parks over a second of flow before
    #: backpressure reaches the source.
    runtime_mailbox_capacity: int = 16
    #: Mailbox batching of the runtime checks (tuples per message; 1 =
    #: unbatched).  Batching is a transparent transport optimization, so
    #: the same steady-state tolerances must hold at any batch size —
    #: parametrizing conformance over this gates batched runs tier-1.
    runtime_batch_size: int = 1
    runtime_tolerances: Tolerances = field(default_factory=lambda: Tolerances(
        departure_rel=0.10, throughput_rel=0.10, min_items=200.0))
    #: Fault sampling rates of the degraded-mode (chaos) checks.
    chaos_faults: FaultPlanConfig = field(default_factory=FaultPlanConfig)
    #: Degraded-mode agreement threshold.  The derated model works with
    #: time-averaged availability, but a slowdown *window* can turn a
    #: non-bottleneck vertex into a transient bottleneck whose queueing
    #: loss the average misses — that approximation error is why chaos
    #: runs are gated at 15% rather than the fault-free 2%.
    chaos_tolerances: Tolerances = field(default_factory=lambda: Tolerances(
        departure_rel=0.15, throughput_rel=0.15, min_items=500.0))
    #: Wall-clock chaos check: a few hundred items and a handful of
    #: faults per run make the measurement inherently noisy.
    chaos_runtime_tolerances: Tolerances = field(
        default_factory=lambda: Tolerances(
            departure_rel=0.25, throughput_rel=0.20, min_items=100.0))
    #: Worker processes of the multi-process (sharded) runtime check.
    process_shards: int = 2

    def resolved_tolerances(self) -> Tolerances:
        if self.tolerances is not None:
            return self.tolerances
        if self.profile == "dag":
            return Tolerances().loosened(0.10)
        return Tolerances()

    def generator_config(self) -> GeneratorConfig:
        if self.profile == "tree":
            return GeneratorConfig(max_vertices=12, max_in_degree=1)
        if self.profile == "dag":
            return GeneratorConfig(max_vertices=12)
        raise ValueError(f"unknown conformance profile {self.profile!r}")

    def runtime_generator_config(self) -> GeneratorConfig:
        """Topologies small and slow enough to measure on wall-clock.

        Service times are clamped into [4ms, 8ms]: long enough that the
        ~100-300us of uncompensated scheduling overhead per item (sleep
        wakeup jitter plus the actor loop itself) stays a few percent
        of the service time, short enough that a few seconds of
        execution yield statistically meaningful counts.
        """
        return GeneratorConfig(
            min_vertices=3, max_vertices=6, max_in_degree=1,
            template_names=RUNTIME_TEMPLATES,
            min_service_time=4e-3, max_service_time=8e-3,
        )


def topology_for_seed(seed: int,
                      config: Optional[ConformanceConfig] = None,
                      generator: Optional[GeneratorConfig] = None) -> Topology:
    """The deterministic topology of one conformance seed."""
    config = config or ConformanceConfig()
    generator = generator or config.generator_config()
    return RandomTopologyGenerator(seed=seed, config=generator).generate(
        name=f"conformance-{seed}")


def simulate_for_conformance(
    topology: Topology,
    predicted: SteadyStateResult,
    config: ConformanceConfig,
    seed: int,
) -> Tuple[Mapping[str, object], float]:
    """Run the DES with the throughput-scaled horizon.

    Returns ``(vertex_measurements, measured_window_seconds)``.
    """
    sim_config = SimulationConfig(
        mailbox_capacity=config.mailbox_capacity,
        service_family=config.service_family,
        routing=config.routing,
        items=config.items,
        seed=seed,
    )
    engine, _ = build_engine(topology, sim_config)
    horizon = config.items / predicted.throughput
    warmup = horizon * config.warmup_fraction
    measurements = engine.run(until=horizon, warmup=warmup)
    return measurements.vertex_rates(), measurements.duration


def check_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
    analyze_fn: AnalyzeFn = analyze_cached,
    topology: Optional[Topology] = None,
) -> ConformanceReport:
    """Model vs. simulator on the topology of one seed.

    ``analyze_fn`` is injectable so deliberately broken models can be
    pitted against the simulator (the harness's self-test); ``topology``
    overrides the seed-generated graph (used by the shrinker, which
    re-checks candidate sub-topologies under the same seed).
    """
    config = config or ConformanceConfig()
    if topology is None:
        topology = topology_for_seed(seed, config)
    predicted = analyze_fn(topology)
    measured, window = simulate_for_conformance(topology, predicted,
                                                config, seed)
    oracle = Oracle(config.resolved_tolerances())
    return oracle.compare(predicted, measured, window,
                          backend="simulator", seed=seed)


def check_optimizer_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
) -> ConformanceReport:
    """Optimizer pipeline vs. simulator on the topology of one seed.

    The topology goes through bottleneck elimination (Algorithm 2) and
    automatic fusion (Algorithms 3-4); the *transformed* topology's
    predicted throughput must still match the simulator — guarding the
    replication and fusion cost models, not just the base analysis.
    """
    config = config or ConformanceConfig()
    topology = topology_for_seed(seed, config)
    fission = eliminate_bottlenecks(topology)
    fused = auto_fuse(fission.optimized)
    optimized = fused.fused
    # Memo hit: auto_fuse just analyzed this exact topology.
    predicted = analyze_cached(optimized)
    measured, window = simulate_for_conformance(optimized, predicted,
                                                config, seed)
    oracle = Oracle(config.resolved_tolerances().loosened(
        config.optimizer_throughput_rel))
    report = oracle.compare(
        predicted, measured, window, backend="optimizer+simulator",
        seed=seed, check_departures=False, check_utilization=False,
        check_bottlenecks=False,
    )
    return replace(report, topology_name=f"{topology.name}-optimized")


def check_chaos_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
    topology: Optional[Topology] = None,
) -> ConformanceReport:
    """Derated model vs. simulator under the seed's fault plan.

    The seed deterministically produces both the topology and a fault
    plan (crashes, poison tuples, slowdown windows, source hiccups);
    the simulator runs it under the matching supervision strategy and
    the measured rates must agree with the *derated* steady-state model
    within ``config.chaos_tolerances``.  The run measures the full
    horizon (no warmup): the derating factors describe full-horizon
    averages, so discarding a warmup window that contains faults would
    bias the comparison.

    ``topology`` overrides the seed-generated graph so the shrinker can
    re-check candidate sub-topologies (the fault plan is regenerated
    per candidate from the same seed).
    """
    config = config or ConformanceConfig()
    if topology is None:
        topology = topology_for_seed(seed, config)
    profile = chaos_profile(topology, seed, config.chaos_faults,
                            items=config.items)
    sim_config = SimulationConfig(
        mailbox_capacity=config.mailbox_capacity,
        service_family=config.service_family,
        routing=config.routing,
        items=config.items,
        seed=seed,
        fault_plan=profile.plan,
        supervisor=profile.strategy,
        on_deadlock="report",
    )
    engine, _ = build_engine(topology, sim_config)
    measurements = engine.run(until=profile.horizon, warmup=0.0)
    oracle = Oracle(config.chaos_tolerances)
    report = oracle.compare(
        profile.derated, measurements.vertex_rates(), measurements.duration,
        backend="chaos+simulator", seed=seed,
        check_utilization=False, check_bottlenecks=False,
    )
    extra: List[Discrepancy] = []
    if measurements.deadlock is not None:
        extra.append(Discrepancy(
            kind="watchdog", operator=measurements.deadlock.verdict,
            expected=0.0,
            actual=float(len(measurements.deadlock.blocked)),
            tolerance=0.0,
        ))
    if measurements.halted is not None:
        extra.append(Discrepancy(
            kind="halted", operator=measurements.halted,
            expected=0.0, actual=1.0, tolerance=0.0,
        ))
    if extra:
        report = replace(report,
                         discrepancies=report.discrepancies + tuple(extra))
    return report


def shrink_chaos_failure(seed: int,
                         config: Optional[ConformanceConfig] = None):
    """Minimal sub-topology still failing the seed's chaos check.

    Returns the :class:`~repro.testing.shrink.ShrinkResult`, or ``None``
    when the seed passes (nothing to shrink).
    """
    from repro.testing.shrink import shrink

    config = config or ConformanceConfig()
    topology = topology_for_seed(seed, config)
    if check_chaos_seed(seed, config, topology=topology).ok:
        return None
    return shrink(
        topology,
        lambda candidate: not check_chaos_seed(seed, config,
                                               topology=candidate).ok,
    )


_SLEEP_OVERSHOOT: Optional[float] = None


def sleep_overshoot() -> float:
    """Measured ``time.sleep`` overshoot of this host, cached.

    ``time.sleep`` wakes a few hundred microseconds late (timer slack),
    which inflates every sleep-padded service time by a constant and
    would show up as a systematic 5-15% throughput deficit at
    millisecond service times.  The runtime factories subtract this
    calibrated constant from their padding targets.
    """
    global _SLEEP_OVERSHOOT
    if _SLEEP_OVERSHOOT is None:
        import time
        samples = []
        for _ in range(25):
            started = time.perf_counter()
            time.sleep(2e-3)
            samples.append(time.perf_counter() - started - 2e-3)
        samples.sort()
        _SLEEP_OVERSHOOT = max(0.0, samples[len(samples) // 2])
    return _SLEEP_OVERSHOOT


def padded_factories(topology: Topology, seed: int) -> dict:
    """Operator factories of the wall-clock checks: a seeded
    ``GeneratorSource`` and, for every other vertex, its gain realized
    deterministically and sleep-padded to the declared service time
    less this host's :func:`sleep_overshoot`."""
    from repro.operators.source_sink import GeneratorSource
    from repro.runtime.synthetic import GainOperator, PaddedOperator

    overshoot = sleep_overshoot()
    factories = {}
    for spec in topology.operators:
        if spec.name == topology.source:
            factories[spec.name] = lambda s=seed: GeneratorSource(seed=s)
        else:
            padding = max(spec.service_time - overshoot, 1e-4)
            factories[spec.name] = lambda g=spec.gain, p=padding: (
                PaddedOperator(GainOperator(g), p))
    return factories


def check_runtime_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
) -> ConformanceReport:
    """Model vs. threaded actor runtime on a wall-clock-sized topology.

    Operators are sleep-padded to their configured service times and
    their selectivities realized deterministically, so the measured
    departure rates are comparable with the model at the 10% level on a
    few seconds of execution.  Utilization and bottleneck checks are
    skipped: sleep padding and GIL scheduling distort busy-time
    accounting (and the source's pacing sleeps are not busy time).
    """
    from repro.runtime.system import RuntimeConfig, run_topology

    config = config or ConformanceConfig()
    topology = topology_for_seed(seed, config,
                                 generator=config.runtime_generator_config())
    predicted = analyze_cached(topology)

    factories = padded_factories(topology, seed)

    runtime_config = RuntimeConfig(
        mailbox_capacity=config.runtime_mailbox_capacity,
        source_rate=topology.operator(topology.source).service_rate,
        seed=seed,
        batch_size=config.runtime_batch_size,
    )
    result = run_topology(
        topology, factories,
        duration=config.runtime_duration,
        warmup=config.runtime_duration * 0.25,
        config=runtime_config,
    )
    oracle = Oracle(config.runtime_tolerances)
    report = oracle.compare(
        predicted, result.vertices, result.measurements.duration,
        backend="runtime", seed=seed,
        check_utilization=False, check_bottlenecks=False,
    )
    # Fault-free hygiene gates: a correctly sized run must deliver every
    # message (no silent BoundedMailbox.put timeouts) and stop() must
    # reap every actor thread.
    extra: List[Discrepancy] = []
    dropped = result.measurements.total_dropped()
    if dropped:
        extra.append(Discrepancy(
            kind="dropped-messages", operator="<runtime>",
            expected=0.0, actual=float(dropped), tolerance=0.0,
        ))
    if result.leaked_actors:
        extra.append(Discrepancy(
            kind="thread-leak", operator=",".join(result.leaked_actors),
            expected=0.0, actual=float(len(result.leaked_actors)),
            tolerance=0.0,
        ))
    if extra:
        report = replace(report,
                         discrepancies=report.discrepancies + tuple(extra))
    return report


def check_process_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
) -> ConformanceReport:
    """Model vs. multi-process sharded runtime (the fourth backend).

    Same topology, factories and tolerances as
    :func:`check_runtime_seed`, but executed by
    :class:`repro.runtime.procshard.ProcShardSystem` across
    ``config.process_shards`` worker processes with solver-driven
    placement.  Beyond rate agreement, the check gates process hygiene:
    zero dropped messages, no wedged actors inside any shard, no worker
    process surviving teardown, and no shard-level failure (crashed
    channel, drain timeout, lost report).
    """
    from repro.runtime.procshard import ProcShardConfig, run_sharded

    config = config or ConformanceConfig()
    topology = topology_for_seed(seed, config,
                                 generator=config.runtime_generator_config())
    predicted = analyze_cached(topology)

    factories = padded_factories(topology, seed)

    proc_config = ProcShardConfig(
        shards=config.process_shards,
        mailbox_capacity=config.runtime_mailbox_capacity,
        # Keep the queue-fill transient inside the warmup: the credit
        # window stands in for the remote mailbox, and channel
        # envelopes stay at the runtime batch size — the default
        # 32-tuple envelopes would triple the slack on a crossing edge
        # and the throttled steady state would not be reached in time.
        channel_capacity=config.runtime_mailbox_capacity,
        channel_batch_size=max(config.runtime_batch_size, 1),
        source_rate=topology.operator(topology.source).service_rate,
        seed=seed,
        batch_size=config.runtime_batch_size,
    )
    result = run_sharded(
        topology, factories,
        duration=config.runtime_duration,
        # Crossing edges roughly double the buffered slack of a local
        # edge, so the process check warms up longer than the threaded
        # check's quarter.
        warmup=config.runtime_duration * 0.5,
        config=proc_config,
    )
    oracle = Oracle(config.runtime_tolerances)
    report = oracle.compare(
        predicted, result.vertices, result.measurements.duration,
        backend="process", seed=seed,
        check_utilization=False, check_bottlenecks=False,
    )
    extra: List[Discrepancy] = []
    dropped = result.dropped_messages
    if dropped:
        extra.append(Discrepancy(
            kind="dropped-messages", operator="<process>",
            expected=0.0, actual=float(dropped), tolerance=0.0,
        ))
    if result.leaked_actors:
        extra.append(Discrepancy(
            kind="thread-leak", operator=",".join(result.leaked_actors),
            expected=0.0, actual=float(len(result.leaked_actors)),
            tolerance=0.0,
        ))
    if result.leaked_workers:
        extra.append(Discrepancy(
            kind="worker-leak", operator=",".join(result.leaked_workers),
            expected=0.0, actual=float(len(result.leaked_workers)),
            tolerance=0.0,
        ))
    if result.failure:
        extra.append(Discrepancy(
            kind="shard-failure", operator=result.failure,
            expected=0.0, actual=1.0, tolerance=0.0,
        ))
    if extra:
        report = replace(report,
                         discrepancies=report.discrepancies + tuple(extra))
    return report


def check_chaos_runtime_seed(
    seed: int,
    config: Optional[ConformanceConfig] = None,
) -> ConformanceReport:
    """Derated model vs. threaded runtime under the seed's fault plan.

    The wall-clock analog of :func:`check_chaos_seed`: the fault plan is
    sized to the items a ``runtime_duration``-second run processes, the
    actor system runs it under the matching supervision strategy, and
    the measured rates must agree with the derated model within the
    (loose) ``config.chaos_runtime_tolerances``.  Escalations, watchdog
    verdicts and leaked threads are hard failures regardless of rates.
    """
    from repro.runtime.system import RuntimeConfig, run_topology

    config = config or ConformanceConfig()
    topology = topology_for_seed(seed, config,
                                 generator=config.runtime_generator_config())
    base = analyze_cached(topology)
    items = max(int(base.throughput * config.runtime_duration), 50)
    profile = chaos_profile(topology, seed, config.chaos_faults, items=items)

    factories = padded_factories(topology, seed)

    runtime_config = RuntimeConfig(
        mailbox_capacity=config.runtime_mailbox_capacity,
        source_rate=topology.operator(topology.source).service_rate,
        seed=seed,
        fault_plan=profile.plan,
        supervisor=profile.strategy,
    )
    result = run_topology(
        topology, factories,
        duration=config.runtime_duration,
        warmup=0.0,
        config=runtime_config,
    )
    oracle = Oracle(config.chaos_runtime_tolerances)
    report = oracle.compare(
        profile.derated, result.vertices, result.measurements.duration,
        backend="chaos+runtime", seed=seed,
        check_utilization=False, check_bottlenecks=False,
    )
    extra: List[Discrepancy] = []
    if result.failure is not None:
        extra.append(Discrepancy(
            kind="runtime-failure", operator=result.failure,
            expected=0.0, actual=1.0, tolerance=0.0,
        ))
    if result.leaked_actors:
        extra.append(Discrepancy(
            kind="thread-leak", operator=",".join(result.leaked_actors),
            expected=0.0, actual=float(len(result.leaked_actors)),
            tolerance=0.0,
        ))
    if extra:
        report = replace(report,
                         discrepancies=report.discrepancies + tuple(extra))
    return report


@dataclass(frozen=True)
class SweepOutcome:
    """All reports of a multi-seed conformance sweep."""

    reports: Tuple[ConformanceReport, ...]

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def failures(self) -> List[ConformanceReport]:
        return [report for report in self.reports if not report.ok]

    @property
    def max_departure_error(self) -> float:
        if not self.reports:
            return 0.0
        return max(report.max_departure_error for report in self.reports)

    def summary(self) -> str:
        lines = [
            f"{len(self.reports)} checks, {len(self.failures)} failed, "
            f"max departure error {self.max_departure_error:.2%}"
        ]
        for report in self.reports:
            if not report.ok:
                lines.append(report.summary())
        return "\n".join(lines)


def _sweep_task(task: Tuple[str, int, ConformanceConfig]):
    """One virtual-time check, runnable in a worker process.

    Every check derives all randomness from its seed (topology
    generator, DES RNG, fault plans), so where it runs cannot change the
    result — parallel sweeps are bit-identical to serial ones.  The
    worker's counter deltas ride back with the report so the parent can
    aggregate process-wide stats.
    """
    kind, seed, config = task
    before = instrumentation.snapshot()
    if kind == "sim":
        report = check_seed(seed, config)
    elif kind == "optimizer":
        report = check_optimizer_seed(seed, config)
    elif kind == "chaos":
        report = check_chaos_seed(seed, config)
    else:  # pragma: no cover - guarded by run_sweep
        raise ValueError(f"unknown sweep task kind {kind!r}")
    return (
        report,
        instrumentation.SOLVER.since(before.solver),
        instrumentation.ENGINE.since(before.engine),
    )


def run_sweep(
    seeds: int,
    config: Optional[ConformanceConfig] = None,
    runtime_seeds: int = 0,
    analyze_fn: AnalyzeFn = analyze_cached,
    chaos_seeds: int = 0,
    workers: Optional[int] = None,
    process_seeds: int = 0,
) -> SweepOutcome:
    """Sweep ``seeds`` consecutive seeds from ``config.base_seed``.

    Each seed runs the model-vs-simulator check and (when enabled) the
    optimizer check; the first ``runtime_seeds`` seeds additionally run
    the wall-clock actor runtime, the first ``process_seeds`` seeds run
    the multi-process sharded runtime, and the first ``chaos_seeds``
    seeds run the degraded-mode (fault-injected) simulator check.

    ``workers`` > 1 fans the virtual-time checks (sim, optimizer,
    chaos) over a :mod:`multiprocessing` pool.  Seeds are isolated —
    every RNG is derived from the seed inside the check — so the
    outcome is bit-identical to the serial sweep in serial order.  The
    wall-clock runtime checks stay in this process: forking competes
    with their sleep-calibrated timing, and their thread-per-actor
    design does not benefit from extra processes.  A custom
    ``analyze_fn`` (the harness self-test hook) forces the serial path,
    since arbitrary callables do not cross process boundaries.
    """
    config = config or ConformanceConfig()
    parallel = (
        workers is not None and workers > 1
        and analyze_fn is analyze_cached
        and (seeds > 0 or chaos_seeds > 0)
    )
    if parallel:
        tasks: List[Tuple[str, int, ConformanceConfig]] = []
        for index in range(seeds):
            seed = config.base_seed + index
            tasks.append(("sim", seed, config))
            if config.optimizer:
                tasks.append(("optimizer", seed, config))
        chaos_tasks = [
            ("chaos", config.base_seed + index, config)
            for index in range(chaos_seeds)
        ]
        import multiprocessing

        with multiprocessing.Pool(processes=workers) as pool:
            outcomes = pool.map(_sweep_task, tasks + chaos_tasks)
        reports = []
        for report, solver_delta, engine_delta in outcomes:
            reports.append(report)
            instrumentation.SOLVER.add(solver_delta)
            instrumentation.ENGINE.add(engine_delta)
        # Serial order: per-seed checks, then runtime, then chaos.
        chaos_reports = reports[len(tasks):]
        reports = reports[:len(tasks)]
    else:
        reports = []
        for index in range(seeds):
            seed = config.base_seed + index
            reports.append(check_seed(seed, config, analyze_fn=analyze_fn))
            if config.optimizer:
                reports.append(check_optimizer_seed(seed, config))
        chaos_reports = [
            check_chaos_seed(config.base_seed + index, config)
            for index in range(chaos_seeds)
        ]
    for index in range(runtime_seeds):
        seed = config.base_seed + index
        reports.append(check_runtime_seed(seed, config))
    # Process-backend checks also run in this process (the driver forks
    # its own shard workers; nesting it in a pool worker would orphan
    # them on a pool timeout).
    for index in range(process_seeds):
        seed = config.base_seed + index
        reports.append(check_process_seed(seed, config))
    reports.extend(chaos_reports)
    return SweepOutcome(reports=tuple(reports))
