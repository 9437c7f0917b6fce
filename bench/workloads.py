"""The eight workloads (why each exists: ``bench/README.md``).

A workload is ``setup(seed, quick, tracer) -> state`` plus one or two
*phases* (``state["problems"]``, if set, lists set-up findings such as
lint errors; each counts as a failed operation).  A phase is a function ``(state, tracer, budget_seconds) ->
[Sample, ...]``; repeating phases are run until their share of
``--seconds`` is used.  The program is driven only through its public
entry points, with every deployment gate and the stall watchdog on.

``--seed`` drives the record generators, the DES and the testbed.  The
testbed seed is folded to two values: even seeds give the paper's
testbed (seed 42), odd seeds its neighbour (seed 43, which shares 49 of
the 50 topologies — ``generate_testbed`` seeds topology *i* with
``seed + i``).  The optimizer's work is dominated by a few topologies
(generator seed 93 alone costs 2 s, against 3.7 s for the paper's whole
testbed), so testbeds drawn from independent seeds differ by a third in
work; runs on different seeds are held to one regression bound, and that
difference would swamp it.
"""

from __future__ import annotations

import collections
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.lint import lint_topology
from repro.codegen.deployment import deployment_json
from repro.codegen.ss2py import generate_code
from repro.core.autofusion import auto_fuse
from repro.core.fission import eliminate_bottlenecks
from repro.core.fusion import apply_fusion
from repro.core.graph import (CheckpointConfig, Edge, KeyDistribution,
                              OperatorSpec, StateKind, Topology)
from repro.core.solver import analyze_cached, clear_cache, predict_sharding
from repro.instrumentation import SOLVER
from repro.operators.base import instantiate_operator
from repro.operators.basic import FieldMap, Filter, Projection
from repro.operators.source_sink import GeneratorSource
from repro.runtime.procshard import ProcShardConfig, ProcShardSystem
from repro.runtime.system import ActorSystem, RuntimeConfig
from repro.sim.network import SimulationConfig, build_engine
from repro.topology import generate_testbed, parse_topology, topology_to_xml

from bench.host import pinned
from bench.ops import KeyedCounter
from bench.trace import Tracer

TESTBED_SEEDS = (42, 43)

#: Open-loop rate of the threaded paced phases (tuples/s): about 10 % load
#: on the slowest pipeline here, where latency is the unloaded path length.
PACED_RATE = 2000.0
#: The process backend's channels send 32-tuple batches or flush after
#: 20 ms.  At 2 000/s a batch fills in 16 ms, so whether the size or the
#: timer fires first flips from run to run (p50 1.8-5.2 ms); at 1 000/s the
#: timer always wins and the latency is that timer's, steadily.
SHARDS_PACED_RATE = 1000.0
#: Batches a paced phase's latencies are cut into (consecutive in due
#: time); each batch yields one p50/p90 sample, so the run's figure is a
#: median with quartiles and not one pooled number.
PACED_BATCHES = 5

GENERATOR = "repro.operators.source_sink.GeneratorSource"
COUNTING_SINK = "repro.operators.source_sink.CountingSink"
SCHEDULED = "bench.ops.ScheduledSource"
PROBE_SINK = "bench.ops.ProbeSink"


@dataclass
class Sample:
    """What one timed repeat (or one batch of a paced phase) measured."""

    #: Operations completed and the wall seconds they took; both zero for
    #: latency-only samples.
    ops: int = 0
    seconds: float = 0.0
    #: Completion time of each operation, in ms (may be empty).
    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Untimed build + start cost paid for this repeat (feeds setup_s).
    setup_s: float = 0.0
    #: Per-layer figures this repeat measured that are not span totals.
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Phase:
    name: str
    share: float
    unit: Callable[[Dict[str, Any], Tracer, float], List[Sample]]
    repeat: bool = True
    #: The unit opens with one span enclosing its layer spans, so their
    #: shares of it (``<span>_share``) are per-layer figures.
    rooted: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool, Tracer], Dict[str, Any]]
    phases: Tuple[Phase, ...]
    #: Run pinned to one CPU.  Everything but the process backend is one
    #: thread or a set of threads sharing the GIL; left unpinned, Linux
    #: moves them between cores, cross-core GIL hand-offs cost the chain
    #: about a third of its throughput, and whether a run lands in that
    #: mode varies run to run (15 % spread unpinned, 3 % pinned).
    pin: bool = True


def _testbed(seed: int, quick: bool) -> List[Topology]:
    return generate_testbed(6 if quick else 50,
                            seed=TESTBED_SEEDS[seed % len(TESTBED_SEEDS)])


# ----------------------------------------------------------------------
# optimize50 — the tool


def _optimize_one(xml: str, tracer: Tracer):
    with tracer.span("topology.parse"):
        topology = parse_topology(xml)
    with tracer.span("analysis.lint"):
        report = lint_topology(topology)
    with tracer.span("core.analyze"):
        base = analyze_cached(topology)
    with tracer.span("core.fission"):
        fission = eliminate_bottlenecks(topology)
    with tracer.span("core.autofuse"):
        fused = auto_fuse(fission.optimized)
    # Code is generated for the fissioned plan: generate_code() cannot
    # yet take the multi-round plans auto_fuse produces (a fused vertex
    # fused again is not in ``original``), see README "Findings".
    with tracer.span("codegen.ss2py"):
        program = generate_code(fission.optimized)
    with tracer.span("codegen.deploy"):
        plan = deployment_json(fused.fused, fusion_plans=fused.plans)
    return report, base, fission, fused, program, plan


def _optimize_setup(seed: int, quick: bool, tracer: Tracer) -> Dict[str, Any]:
    with tracer.span("topology.testbed_gen"):
        xmls = [topology_to_xml(t) for t in _testbed(seed, quick)]
    for xml in xmls[:3]:  # discarded warm-up: lazy imports, analyzer caches
        _optimize_one(xml, Tracer("warm-up"))
    return {"xmls": xmls}


def _optimize_pass(state: Dict[str, Any], tracer: Tracer,
                   budget: float) -> List[Sample]:
    sample = Sample(attempted=len(state["xmls"]))
    clear_cache()
    before = SOLVER.snapshot()
    ideal = replicas = fused_away = 0
    outputs = []
    with tracer.span("optimize50.pass") as whole:
        for index, xml in enumerate(state["xmls"]):
            started = time.perf_counter()
            try:
                result = _optimize_one(xml, tracer)
            except Exception as error:  # one bad topology must not hide 49
                sample.failed += 1
                sample.problems.append(
                    f"topology {index}: {type(error).__name__}: {error}")
                continue
            sample.latencies_ms.append(
                (time.perf_counter() - started) * 1e3)
            outputs.append((index, result))
    sample.ops, sample.seconds = len(outputs), whole.seconds
    solver = SOLVER.since(before)
    # Output checks, outside the timed pass.  compile() costs a fifth of
    # a pass and the programs of one run are identical pass to pass, so
    # only the first pass compiles them.
    compile_programs = not state.get("compiled")
    state["compiled"] = True
    for index, (report, base, fission, fused, program, plan) in outputs:
        ideal += fission.ideal_throughput_reached
        replicas += fission.additional_replicas
        fused_away += fused.operators_removed
        reasons = []
        if not report.ok:
            reasons.append("lint errors")
        if fused.throughput < base.throughput * (1.0 - 1e-9):
            reasons.append("optimized plan predicts less throughput")
        try:
            if compile_programs:
                compile(program, f"<testbed-{index}>", "exec")
            json.loads(plan)
        except (SyntaxError, ValueError) as error:
            reasons.append(f"generated output invalid: {error}")
        if reasons:
            sample.failed += 1
            sample.problems.append(f"topology {index}: " + "; ".join(reasons))
    sample.layers = {
        "ideal_reached_frac": ideal / max(len(outputs), 1),
        "core.solve_requests": solver.solve_requests,
        "core.full_solves": solver.full_solves,
        "core.incremental_solves": solver.incremental_solves,
        "core.cache_hits": solver.cache_hits,
        "core.replicas_added": replicas,
        "core.operators_fused": fused_away,
    }
    return [sample]


# ----------------------------------------------------------------------
# des50 — the simulator


def fig11_topology() -> Topology:
    """The paper's Figure 11 example (service times in ms)."""
    times = {"op1": 1.0, "op2": 1.2, "op3": 0.7,
             "op4": 2.0, "op5": 1.5, "op6": 0.2}
    edges = [("op1", "op2", 0.7), ("op1", "op3", 0.3), ("op3", "op4", 0.35),
             ("op3", "op5", 0.65), ("op4", "op5", 0.5), ("op4", "op6", 0.5),
             ("op2", "op6", 1.0), ("op5", "op6", 1.0)]
    return Topology([OperatorSpec(n, t * 1e-3) for n, t in times.items()],
                    [Edge(*edge) for edge in edges], name="fig11")


def _des_setup(seed: int, quick: bool, tracer: Tracer) -> Dict[str, Any]:
    with tracer.span("topology.testbed_gen"):
        originals = _testbed(seed, quick)
    fissioned = [eliminate_bottlenecks(t).optimized for t in originals]
    scale = 20 if quick else 1
    # Originals are deeply backpressured (blocking/wake-up cascade);
    # their fissioned versions are wide and free-flowing.
    jobs = [(t, 80_000 // scale, analyze_cached(t).throughput,
             "backpressured") for t in originals]
    jobs += [(t, 8_000 // scale, analyze_cached(t).throughput, "wide")
             for t in fissioned]
    state = {"jobs": jobs, "seed": seed, "quick": quick,
             "fig11_items": 50_000 // scale}
    _simulate(originals[0], 2_000, seed, Tracer("warm-up"))
    return state


def _simulate(topology: Topology, items: int, seed: int, tracer: Tracer):
    """One DES run -> (events, seconds in engine.run, measured throughput)."""
    with tracer.span("sim.build"):
        engine, rate = build_engine(
            topology, SimulationConfig(items=items, seed=seed))
    horizon = items / rate
    with tracer.span("sim.run") as run:
        measured = engine.run(until=horizon, warmup=horizon * 0.25)
    if measured.deadlock is not None or measured.halted is not None:
        raise RuntimeError(f"simulation did not finish: {measured.deadlock}"
                           f" {measured.halted}")
    events = sum(station.consumed for station in engine.stations)
    throughput = measured.vertex_rates()[topology.source].departure_rate
    return events, run.seconds, throughput


def _des_pass(state: Dict[str, Any], tracer: Tracer,
              budget: float) -> List[Sample]:
    sample = Sample(attempted=len(state["jobs"]))
    events = collections.Counter()
    seconds = collections.Counter()
    errors = []
    with tracer.span("des50.pass"):
        for index, (topology, items, predicted, kind) in enumerate(
                state["jobs"]):
            started = time.perf_counter()
            try:
                count, spent, measured = _simulate(
                    topology, items, state["seed"], tracer)
            except Exception as error:  # count it, simulate the rest
                sample.failed += 1
                sample.problems.append(
                    f"simulation {index}: {type(error).__name__}: {error}")
                continue
            sample.latencies_ms.append(
                (time.perf_counter() - started) * 1e3)
            events[kind] += count
            seconds[kind] += spent
            if kind == "backpressured":  # paper Fig. 7: the originals
                errors.append(abs(measured - predicted) / predicted * 100.0)
    sample.ops = sum(events.values())
    sample.seconds = sum(seconds.values())
    mean_error = sum(errors) / max(len(errors), 1)
    if mean_error > 10.0 and not state["quick"]:  # quick runs are too short
        sample.failed += 1
        sample.problems.append(
            f"model error {mean_error:.1f}% (analyze() vs DES) above 10%")
    sample.layers = {
        "sim.events": sample.ops,
        "model_error_mean_pct": mean_error,
        "sim.model_error_max_pct": max(errors, default=0.0),
    }
    for kind in ("backpressured", "wide"):
        if seconds[kind]:
            sample.layers[f"sim.events_per_s_{kind}"] = (
                events[kind] / seconds[kind])
    if tracer.enabled:  # the legacy des.fig11 case, outside the pass
        count, spent, _ = _simulate(fig11_topology(), state["fig11_items"],
                                    state["seed"], Tracer("fig11"))
        sample.layers["sim.events_per_s_fig11"] = count / spent
    return [sample]


# ----------------------------------------------------------------------
# runtime workloads: topologies


def chain_topology(source: str, source_args: Dict[str, Any], sink: str,
                   middle: OperatorSpec,
                   checkpoint: Optional[CheckpointConfig] = None) -> Topology:
    """source -> ``middle`` -> sink, unpadded."""
    return Topology(
        [OperatorSpec("source", 1e-5, operator_class=source,
                      operator_args=source_args),
         middle,
         OperatorSpec("sink", 1e-5, state=StateKind.STATEFUL,
                      output_selectivity=0.0, operator_class=sink)],
        [Edge("source", middle.name), Edge(middle.name, "sink")],
        name=f"bench-{middle.name}", checkpoint=checkpoint)


IDENTITY = OperatorSpec("ident", 1e-5,
                        operator_class="repro.operators.basic.Identity")


def busy_spec(busy_time: float) -> OperatorSpec:
    # Three replicas on two shards: the default placement keeps one
    # beside the source and sends two across the channels.  With two
    # replicas the round-robin emitter sends exactly half the tuples each
    # way and the median latency falls in the gap between a 1 ms (local)
    # and a 20 ms (channel flush timer) mode: p50 read 1.4-3.7 ms run to
    # run.  With two thirds crossing, p50 and p90 both sit inside the
    # crossing mode.
    return OperatorSpec("busy", busy_time, replication=3,
                        operator_class="repro.runtime.synthetic.BusyOperator",
                        operator_args={"busy_time": busy_time})


FANOUT_FIELDS = ("sequence", "value", "key", "due", "sent")
FANOUT_THRESHOLD = 2.0  # on value*2+1 in [1, 3): half the tuples pass


def _fanout_unfused(source: str, source_args: Dict[str, Any]) -> Topology:
    """source -> parse x2 -> filt -> proj -> keyed x2 -> sink."""
    specs = [
        OperatorSpec("source", 1e-5, operator_class=source,
                     operator_args=source_args),
        OperatorSpec("parse", 2e-5, replication=2,
                     operator_class="repro.operators.basic.FieldMap",
                     operator_args={"field": "value"}),
        OperatorSpec("filt", 1e-5, output_selectivity=0.5,
                     operator_class="repro.operators.basic.Filter",
                     operator_args={"threshold": FANOUT_THRESHOLD}),
        OperatorSpec("proj", 1e-5,
                     operator_class="repro.operators.basic.Projection",
                     operator_args={"fields": FANOUT_FIELDS}),
        OperatorSpec("keyed", 2e-5, state=StateKind.PARTITIONED,
                     replication=2, keys=KeyDistribution.uniform(64),
                     operator_class="bench.ops.KeyedCounter"),
        OperatorSpec("sink", 1e-5, state=StateKind.STATEFUL,
                     output_selectivity=0.0, operator_class=PROBE_SINK),
    ]
    names = [spec.name for spec in specs]
    return Topology(specs, [Edge(a, b) for a, b in zip(names, names[1:])],
                    name="bench-fanout")


def fanout_plan(source: str, source_args: Dict[str, Any]):
    """The fan-out plan with ``filt`` and ``proj`` fused into one vertex.

    Returns the fused topology, its fusion plan and the member
    factories ``ActorSystem.build`` needs for the fused vertex.
    """
    topology = _fanout_unfused(source, source_args)
    fusion = apply_fusion(topology, ["filt", "proj"])
    factories = {
        name: partial(instantiate_operator,
                      topology.operator(name).operator_class,
                      topology.operator(name).operator_args)
        for name in fusion.plan.members
    }
    return fusion.fused, fusion.plan, factories


def _fanout_reference(seed: int, items: int):
    """Single-threaded reference: the records the sink must receive.

    Returns ``[(sequence, value, key), ...]`` in sequence order and the
    single-threaded tuples/s of the same operators (the baseline a
    pipeline of eleven threads is set against).
    """
    source = GeneratorSource(seed=seed)
    parse = FieldMap(field="value")
    filt = Filter(threshold=FANOUT_THRESHOLD)
    proj = Projection(fields=FANOUT_FIELDS)
    keyed = KeyedCounter()
    out = []
    started = time.perf_counter()
    for sequence in range(items):
        record = parse.operator_function(
            source.operator_function(sequence)[0])[0]
        for passed in filt.operator_function(record):
            result = keyed.operator_function(
                proj.operator_function(passed)[0])[0]
            out.append((result["sequence"], result["value"], result["key"]))
    return out, items / (time.perf_counter() - started)


def _fanout_mismatches(delivered: Sequence[tuple],
                       expected: Sequence[tuple]) -> Tuple[int, List[str]]:
    """Compare :class:`bench.ops.Delivery` rows with the reference rows
    the sink must have received -> (mismatches, problems)."""
    want = collections.Counter((seq, value) for seq, value, _ in expected)
    got = collections.Counter((row.sequence, row.value) for row in delivered)
    mismatches = sum(((want - got) + (got - want)).values())
    problems = []
    if mismatches:
        problems.append(f"{mismatches} (sequence, value) deliveries differ "
                        "from the single-threaded reference")
    per_key = collections.Counter(key for _, _, key in expected)
    seen: Dict[str, List[int]] = {}
    for row in delivered:
        seen.setdefault(row.key, []).append(row.seen)
    wrong = sum(1 for key, count in per_key.items()
                if sorted(seen.get(key, ())) != list(range(1, count + 1)))
    if wrong:
        mismatches += wrong
        problems.append(f"{wrong} keys ended with a wrong per-key count")
    return mismatches, problems


# ----------------------------------------------------------------------
# runtime workloads: drivers


def _lint_clean(topology: Topology, backend: str) -> List[str]:
    report = lint_topology(topology, backend=backend)
    return [diagnostic.render() for diagnostic in report.errors]


def _run_threaded(tracer: Tracer, topology: Topology, config: RuntimeConfig,
                  expected: int, factories=None, plans=()):
    """Run to exhaustion on the threaded runtime.

    Returns ``(sample, sink operator)``; the sample's ``seconds`` run
    from ``start`` to the last sink delivery (closed loop under BAS
    backpressure: the saturation throughput).
    """
    with tracer.span("system.build") as build:
        system = ActorSystem.build(topology, factories or {}, config=config,
                                   fusion_plans=plans)
    sink = next(actor.operator for actor in system.actors
                if actor.vertex == "sink")
    started = time.perf_counter()
    deadline = started + 60.0
    with tracer.span("system.start") as start:
        system.start()
    try:
        # Block on the source first: polling from this thread would take
        # the GIL from the pipeline for the whole run, not just its tail.
        system.source_actor.join(timeout=60.0)
        while (sink.count < expected and not system.failure.is_set()
               and time.perf_counter() < deadline):
            time.sleep(0.001)
        wall = time.perf_counter() - started
        counters = system.snapshot()
    finally:
        with tracer.span("system.stop"):
            leaked = system.stop()
    dropped = sum(c.dropped for c in counters.values())
    dead = system.context.dead_letters.total
    sample = Sample(ops=config.max_items, seconds=wall, attempted=expected,
                    setup_s=build.seconds + start.seconds)
    sample.failed = (abs(expected - sink.count) + dropped + dead
                     + len(leaked))
    if system.failure_reason is not None:
        sample.failed += 1
        sample.problems.append(f"run aborted: {system.failure_reason}")
    if sample.failed:
        sample.problems.append(
            f"{topology.name}: sink got {sink.count}/{expected}, "
            f"{dropped} dropped, {dead} dead letters, leaked {leaked}")
    sample.layers = {
        "system.actors": len(system.actors),
        "system.busy_frac_max": max(c.busy_time for c in counters.values())
        / wall,
        "system.source_blocked_frac": counters["source"].blocked_time / wall,
        "system.dropped": dropped,
        "system.dead_letters": dead,
        "system.leaked_actors": len(leaked),
    }
    session = system.checkpoint_session
    if session is not None:
        sample.layers["checkpoint.epochs_completed"] = session.store.completed
    return sample, sink


def _pin_process(pid: int, cpu: int) -> None:
    """Pin every thread of ``pid`` to ``cpu``.  The main thread goes
    first, so threads it creates from here on inherit the mask."""
    os.sched_setaffinity(pid, {cpu})
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), {cpu})
        except ProcessLookupError:  # the thread has already exited
            pass


def _run_sharded(tracer: Tracer, topology: Topology, config: ProcShardConfig,
                 expected: int):
    """Run to exhaustion on the process backend.

    Returns ``(sample, sink rows, placement)``.  ``start`` and ``finish``
    are called separately (``run_to_exhaustion`` is the two in a row) so
    each shard worker can be pinned to a CPU of its own in between: a
    worker is a set of threads sharing one GIL, the reason the threaded
    workloads run pinned too (8.0 k tuples/s +-2 % on ``shards_cpu``
    against 6.9 k +-5 % unpinned).
    """
    with tracer.span("procshard.build") as build:
        system = ProcShardSystem.build(topology, config=config)
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    with tracer.span("procshard.start"):
        system.start()
    for index, process in enumerate(system.processes):
        _pin_process(process.pid, cpus[index % len(cpus)])
    with tracer.span("procshard.finish"):
        reports = system.finish(stop=False)
    wall = time.perf_counter() - started
    sample = Sample(ops=config.max_items, seconds=wall, attempted=expected,
                    setup_s=build.seconds)
    lost = [shard for shard, report in reports.items() if report is None]
    reports = [report for report in reports.values() if report is not None]
    counters = {name: snapshot for report in reports
                for name, snapshot in report["snapshots"].items()}
    sinks = [report["sinks"]["sink"] for report in reports
             if "sink" in report["sinks"]]
    delivered = sum(sink["count"] for sink in sinks)
    dropped = (sum(c.dropped for c in counters.values())
               + sum(report["mailbox_dropped"] for report in reports))
    dead = sum(report["dead_letters"] for report in reports)
    leaked = [a for report in reports for a in report["leaked_actors"]]
    crashed = {c for report in reports for c in report["crashed_channels"]}
    errors = [report["error"] for report in reports if report["error"]]
    errors += [f"shard {shard}: no report (worker lost)" for shard in lost]
    sample.failed = (abs(expected - delivered) + dropped + dead + len(leaked)
                     + len(system.leaked_workers) + len(crashed)
                     + len(errors))
    if sample.failed:
        sample.problems.append(
            f"{topology.name}: sink got {delivered}/{expected}, {dropped} "
            f"dropped, {dead} dead letters, leaked {system.leaked_workers} "
            f"{leaked}, crashed channels {sorted(crashed)}, errors {errors}")
    sample.layers = {
        "system.actors": len(counters),
        "system.busy_frac_max": max(
            (c.busy_time for c in counters.values()), default=0.0) / wall,
        "system.source_blocked_frac":
            counters["source"].blocked_time / wall if "source" in counters
            else 0.0,
        "system.dropped": dropped,
        "system.dead_letters": dead,
        "system.leaked_actors": len(leaked),
        "procshard.leaked_workers": len(system.leaked_workers),
        "procshard.crashed_channels": len(crashed),
    }
    rows = [row for sink in sinks for row in sink["items"]]
    return sample, rows, system.placement


def _latency_samples(first: Sample, rows: Sequence[tuple], duration: float,
                     rate: float = PACED_RATE) -> List[Sample]:
    """Cut a paced phase's deliveries into latency samples.

    ``rows`` are :class:`bench.ops.Delivery` tuples.  Latency is arrival
    minus *due* time; tuples due in the first second (or first 15 %) are
    discarded as ramp-up.  ``first`` carries the phase's accounting and
    layer figures and receives the first batch.
    """
    first.ops, first.seconds = 0, 0.0  # a paced run times no throughput
    t0 = min((row.due for row in rows), default=0.0)
    cutoff = t0 + min(1.0, 0.15 * duration)
    kept = sorted((row for row in rows if row.due >= cutoff),
                  key=lambda row: row.due)
    latencies = [(row.arrived - row.due) * 1e3 for row in kept]
    lags = sorted((row.sent - row.due) * 1e3 for row in kept)
    if len(latencies) < 10 * PACED_BATCHES:
        first.failed += 1
        first.problems.append(
            f"paced phase kept only {len(latencies)} latencies")
        return [first]
    # How late the generator ran, in inter-arrival intervals.
    first.layers["system.gen_lag_p99_intervals"] = (
        lags[int(len(lags) * 0.99)] * 1e-3 * rate)
    size = len(latencies) // PACED_BATCHES
    samples = [first] + [Sample() for _ in range(PACED_BATCHES - 1)]
    for index, sample in enumerate(samples):
        sample.latencies_ms = latencies[index * size:(index + 1) * size]
    return samples


def _paced_items(budget: float,
                 rate: float = PACED_RATE) -> Tuple[int, float]:
    duration = max(budget - 0.3, 0.5)
    return int(rate * duration), duration


# ----------------------------------------------------------------------
# hop_chain / ckpt_chain — threaded chain, closed loop then paced


def _chain_workload(name: str, items: int,
                    checkpoint: Optional[CheckpointConfig]) -> Workload:
    def topology(state: Dict[str, Any], paced: bool = False,
                 checkpointed: bool = True) -> Topology:
        barriers = checkpoint if checkpointed else None
        if paced:
            return chain_topology(
                SCHEDULED, {"rate": PACED_RATE, "seed": state["seed"]},
                PROBE_SINK, IDENTITY, barriers)
        return chain_topology(GENERATOR, {"seed": state["seed"]},
                              COUNTING_SINK, IDENTITY, barriers)

    def setup(seed: int, quick: bool, tracer: Tracer) -> Dict[str, Any]:
        state = {"seed": seed, "items": items // (20 if quick else 1)}
        state["problems"] = (_lint_clean(topology(state), "threaded")
                             + _lint_clean(topology(state, paced=True),
                                           "threaded"))
        closed(state, Tracer("warm-up"), 0.0, items=2_000)
        return state

    def config(state: Dict[str, Any], max_items: int) -> RuntimeConfig:
        # Mailbox 64, unbatched: the mailbox hand-off and
        # OperatorActor.handle are all the work.
        return RuntimeConfig(mailbox_capacity=64, max_items=max_items,
                             seed=state["seed"])

    def closed(state: Dict[str, Any], tracer: Tracer, budget: float,
               items: Optional[int] = None) -> List[Sample]:
        count = items or state["items"]
        sample, _ = _run_threaded(tracer, topology(state),
                                  config(state, count), count)
        if checkpoint is not None:
            want = (count - 1) // checkpoint.interval_items
            got = sample.layers["checkpoint.epochs_completed"]
            if got != want:
                sample.failed += 1
                sample.problems.append(f"{got} epochs completed, not {want}")
            if tracer.enabled and items is None:
                # ROADMAP 1c: the barrier tax from an interleaved
                # plain/checkpointed pair, one ratio per traced repeat.
                plain, _ = _run_threaded(
                    Tracer("pair"), topology(state, checkpointed=False),
                    config(state, count), count)
                sample.layers["checkpoint.overhead_ratio"] = (
                    1.0 - (sample.ops / sample.seconds)
                    / (plain.ops / plain.seconds))
        return [sample]

    def paced(state: Dict[str, Any], tracer: Tracer,
              budget: float) -> List[Sample]:
        count, duration = _paced_items(budget)
        sample, sink = _run_threaded(Tracer("paced"),
                                     topology(state, paced=True),
                                     config(state, count), count)
        return _latency_samples(sample, sink.items, duration)

    return Workload(name, setup, (Phase("closed", 0.6, closed),
                                  Phase("paced", 0.4, paced, repeat=False)))


# ----------------------------------------------------------------------
# fanout_batched / paced_latency — the fissioned + fused plan


def _fanout_workload(name: str, items: int, batch_size: int,
                     closed_share: float) -> Workload:
    def setup(seed: int, quick: bool, tracer: Tracer) -> Dict[str, Any]:
        count = items // (20 if quick else 1)
        reference, baseline = _fanout_reference(seed, count)
        state = {"seed": seed, "items": count, "reference": reference,
                 "reference_items": count, "baseline": baseline,
                 "problems": []}
        for source, args in ((GENERATOR, {"seed": seed}),
                             (SCHEDULED, {"rate": PACED_RATE, "seed": seed})):
            # Linted before fusion: a fused vertex names no importable
            # class (README "Findings").
            state["problems"] += _lint_clean(_fanout_unfused(source, args),
                                             "threaded")
        run(state, Tracer("warm-up"), GENERATOR, {"seed": seed}, 2_000)
        return state

    def run(state: Dict[str, Any], tracer: Tracer, source: str,
            args: Dict[str, Any], count: int):
        if count > state["reference_items"]:  # a long paced phase
            state["reference"], _ = _fanout_reference(state["seed"], count)
            state["reference_items"] = count
        topology, plan, factories = fanout_plan(source, args)
        # fusion_mode="auto" loop-compiles F(filt+proj); batching is the
        # global RuntimeConfig default on every edge.
        config = RuntimeConfig(mailbox_capacity=64, max_items=count,
                               seed=state["seed"], batch_size=batch_size,
                               fusion_mode="auto")
        expected = [row for row in state["reference"] if row[0] < count]
        sample, sink = _run_threaded(tracer, topology, config, len(expected),
                                     factories=factories, plans=[plan])
        mismatches, problems = _fanout_mismatches(sink.items, expected)
        sample.failed += mismatches
        sample.problems += problems
        sample.layers["system.single_thread_tuples_per_s"] = state["baseline"]
        return sample, sink

    def closed(state: Dict[str, Any], tracer: Tracer,
               budget: float) -> List[Sample]:
        sample, sink = run(state, tracer, GENERATOR, {"seed": state["seed"]},
                           state["items"])
        # Rate between the 1st and 99th percentile delivery, as the sink
        # saw them.  The last few tuples sit in partial batches until an
        # idle actor's 50 ms poll flushes them, hop after hop: a fixed
        # drain cost of up to 150 ms that says nothing about saturation
        # throughput and made a 0.5 s repeat read 32k or 43k tuples/s.
        rows = sink.items
        if len(rows) >= 200:
            low, high = len(rows) // 100, len(rows) - len(rows) // 100 - 1
            sample.seconds = rows[high].arrived - rows[low].arrived
            sample.ops = round(sample.ops * (high - low) / len(rows))
        return [sample]

    def paced(state: Dict[str, Any], tracer: Tracer,
              budget: float) -> List[Sample]:
        count, duration = _paced_items(budget)
        sample, sink = run(state, Tracer("paced"), SCHEDULED,
                           {"rate": PACED_RATE, "seed": state["seed"]}, count)
        return _latency_samples(sample, sink.items, duration)

    return Workload(name, setup, (
        Phase("closed", closed_share, closed),
        Phase("paced", 1.0 - closed_share, paced, repeat=False)))


# ----------------------------------------------------------------------
# shards_cpu / shards_ipc — the process backend


def _shards_workload(name: str, items: int, busy_time: float) -> Workload:
    def topology(state: Dict[str, Any], paced: bool = False) -> Topology:
        if paced:
            return chain_topology(
                SCHEDULED, {"rate": SHARDS_PACED_RATE, "seed": state["seed"]},
                PROBE_SINK, busy_spec(busy_time))
        return chain_topology(GENERATOR, {"seed": state["seed"]},
                              COUNTING_SINK, busy_spec(busy_time))

    def setup(seed: int, quick: bool, tracer: Tracer) -> Dict[str, Any]:
        state = {"seed": seed, "items": items // (20 if quick else 1)}
        state["problems"] = (_lint_clean(topology(state), "process")
                             + _lint_clean(topology(state, paced=True),
                                           "process"))
        closed(state, Tracer("warm-up"), 0.0, items=500)
        return state

    def config(state: Dict[str, Any], max_items: int) -> ProcShardConfig:
        # shards = the cores of this host; placement and channel
        # batching are the backend's defaults.
        return ProcShardConfig(shards=2, max_items=max_items,
                               seed=state["seed"])

    def closed(state: Dict[str, Any], tracer: Tracer, budget: float,
               items: Optional[int] = None) -> List[Sample]:
        count = items or state["items"]
        sample, _, placement = _run_sharded(tracer, topology(state),
                                            config(state, count), count)
        if tracer.enabled and items is None:
            # The same job on the threaded runtime (pinned, like the
            # threaded workloads), for the speed-up the sharding cost
            # model predicts.
            with pinned():
                threaded, _ = _run_threaded(
                    Tracer("threaded"), topology(state),
                    RuntimeConfig(mailbox_capacity=64, max_items=count,
                                  seed=state["seed"]), count)
            speedup = ((sample.ops / sample.seconds)
                       / (threaded.ops / threaded.seconds))
            predicted = predict_sharding(
                topology(state), placement,
                batch_size=ProcShardConfig().channel_batch_size,
            ).predicted_speedup
            sample.layers["procshard.speedup_vs_threaded"] = speedup
            sample.layers["model.sharding_pred_error_pct"] = (
                abs(predicted - speedup) / speedup * 100.0)
            sample.failed += threaded.failed
            sample.problems += threaded.problems
        return [sample]

    def paced(state: Dict[str, Any], tracer: Tracer,
              budget: float) -> List[Sample]:
        count, duration = _paced_items(budget, SHARDS_PACED_RATE)
        sample, rows, _ = _run_sharded(Tracer("paced"),
                                       topology(state, paced=True),
                                       config(state, count), count)
        return _latency_samples(sample, rows, duration, SHARDS_PACED_RATE)

    return Workload(name, setup, (Phase("closed", 0.6, closed),
                                  Phase("paced", 0.4, paced, repeat=False)),
                    pin=False)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("optimize50", _optimize_setup,
             (Phase("pass", 1.0, _optimize_pass, rooted=True),)),
    Workload("des50", _des_setup,
             (Phase("pass", 1.0, _des_pass, rooted=True),)),
    _chain_workload("hop_chain", 40_000, None),
    _chain_workload("ckpt_chain", 30_000, CheckpointConfig()),
    _fanout_workload("fanout_batched", 15_000, batch_size=8,
                     closed_share=0.6),
    _fanout_workload("paced_latency", 15_000, batch_size=1,
                     closed_share=0.4),
    _shards_workload("shards_cpu", 5_000, busy_time=200e-6),
    _shards_workload("shards_ipc", 15_000, busy_time=20e-6),
)}
