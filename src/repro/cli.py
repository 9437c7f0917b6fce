"""``spinstreams`` command-line interface.

The console counterpart of the paper's GUI workflow::

    spinstreams lint app.xml                     # static checks (SS1xx/SS2xx)
    spinstreams analyze app.xml                  # steady-state analysis
    spinstreams optimize app.xml --max-replicas 40
    spinstreams candidates app.xml               # ranked fusion candidates
    spinstreams fuse app.xml --ops op3,op4,op5
    spinstreams simulate app.xml --items 200000  # DES measurement
    spinstreams generate app.xml -o run_app.py   # SS2Py code generation
    spinstreams run app.xml --backend process --shards 4   # execute it
    spinstreams random --seed 7 -o random.xml    # Algorithm 5 testbed entry
    spinstreams conformance --seeds 25           # differential conformance
    spinstreams adapt --seeds 20 -o decisions.json   # online re-optimization
    spinstreams render app.xml -o app.dot        # Graphviz rendering
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.lint import lint_topology
from repro.codegen.deployment import deployment_json, flink_sketch, storm_sketch
from repro.codegen.ss2py import CodegenConfig, generate_code
from repro.core.autofusion import auto_fuse
from repro.core.fission import eliminate_bottlenecks
from repro.core.fusion import apply_fusion
from repro.core.graph import TopologyError
from repro.core.latency import estimate_latency
from repro.core.memory import estimate_memory, memory_report
from repro.core.report import analysis_report, fission_report, fusion_report
from repro.core.steady_state import analyze
from repro.core.candidates import enumerate_candidates
from repro.sim.network import SimulationConfig, simulate
from repro.topology.dot import topology_to_dot
from repro.topology.random_gen import RandomTopologyGenerator
from repro.topology.xmlio import parse_topology, topology_to_xml, write_topology


def _write_or_print(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written to {output}")


def _cmd_lint(args: argparse.Namespace) -> int:
    report = lint_topology(
        args.topology,
        check_code=not args.no_code,
        source_rate=args.source_rate,
        backend=args.backend,
        plan=args.plan,
        shards=args.shards,
    )
    if args.sarif:
        text = report.to_sarif()
    elif args.json:
        text = report.to_json()
    else:
        text = report.render()
    _write_or_print(text, args.output)
    return report.exit_code


def _cmd_analyze(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    result = analyze(topology, source_rate=args.source_rate)
    measured = None
    if args.measure:
        measured = simulate(
            topology, SimulationConfig(items=args.items),
            source_rate=args.source_rate,
        ).throughput
    print(analysis_report(result, measured_throughput=measured))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.instrumentation import SOLVER

    topology = parse_topology(args.topology)
    result = eliminate_bottlenecks(
        topology, source_rate=args.source_rate,
        max_replicas=args.max_replicas,
    )
    print(fission_report(result))
    print(SOLVER.summary())
    if args.output:
        write_topology(result.optimized, args.output)
        print(f"optimized topology written to {args.output}")
    return 0


def _cmd_candidates(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    candidates = enumerate_candidates(
        topology, max_size=args.max_size,
        max_utilization=args.max_utilization, limit=args.limit,
    )
    if not candidates:
        print("no fusion candidates found")
        return 0
    print(f"{len(candidates)} fusion candidates (best first):")
    for candidate in candidates:
        marker = "ok " if candidate.safe else "RISK"
        print(
            f"  [{marker}] {{{', '.join(candidate.members)}}} "
            f"front-end={candidate.front_end} "
            f"mean-rho={candidate.mean_utilization:.2f} "
            f"fused-rho={candidate.predicted_utilization:.2f}"
        )
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    members = [name.strip() for name in args.ops.split(",") if name.strip()]
    result = apply_fusion(topology, members, fused_name=args.name,
                          source_rate=args.source_rate)
    print(fusion_report(result))
    if args.output:
        write_topology(result.fused, args.output)
        print(f"fused topology written to {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    predicted = analyze(topology, source_rate=args.source_rate)
    measured = simulate(
        topology,
        SimulationConfig(items=args.items, seed=args.seed,
                         mailbox_capacity=args.mailbox_capacity),
        source_rate=args.source_rate,
    )
    print(analysis_report(predicted, measured_throughput=measured.throughput))
    if args.per_operator:
        print("\nper-operator departure rates (predicted vs measured):")
        for name in topology.names:
            p = predicted.departure_rate(name)
            m = measured.departure_rate(name)
            error = abs(m - p) / p if p > 0 else float("nan")
            print(f"  {name}: {p:.1f} vs {m:.1f} ({error:.1%})")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    code = generate_code(
        topology, config=CodegenConfig(duration=args.duration),
    )
    _write_or_print(code, args.output)
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    generator = RandomTopologyGenerator(seed=args.seed)
    topology = generator.generate(name=f"random-{args.seed}")
    _write_or_print(topology_to_xml(topology), args.output)
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    estimate = estimate_latency(
        topology, source_rate=args.source_rate,
        mailbox_capacity=args.mailbox_capacity,
        assumption=args.assumption,
    )
    print(f"topology: {topology.name} (assumption: {estimate.assumption})")
    print(f"{'operator':<24} {'rho':>6} {'wait (ms)':>10} {'resid (ms)':>11}")
    for name in topology.names:
        op = estimate.operators[name]
        print(f"{name:<24} {op.utilization:>6.2f} "
              f"{op.waiting_time * 1e3:>10.3f} "
              f"{op.residence_time * 1e3:>11.3f}")
    print(f"\nend-to-end latency: {estimate.end_to_end * 1e3:.3f} ms")
    for sink, latency in estimate.sink_latencies.items():
        print(f"  to {sink}: {latency * 1e3:.3f} ms")
    return 0


def _cmd_autofuse(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    result = auto_fuse(
        topology, source_rate=args.source_rate, max_size=args.max_size,
        max_utilization=args.max_utilization, headroom=args.headroom,
    )
    print(f"topology: {topology.name}")
    print(f"operators: {len(topology)} -> {len(result.fused)} "
          f"({result.operators_removed} removed in {result.rounds} rounds)")
    for step in result.steps:
        print(f"  fused {', '.join(step.plan.members)} -> "
              f"{step.plan.fused_name}")
    print(f"predicted throughput preserved: "
          f"{result.throughput:,.0f} items/sec")
    if args.output:
        write_topology(result.fused, args.output)
        print(f"fused topology written to {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling.profiler import profile_topology
    from repro.runtime.system import RuntimeConfig

    topology = parse_topology(args.topology)
    factories = _run_factories(topology, args.pad)
    report = profile_topology(
        topology, factories, duration=args.duration,
        config=RuntimeConfig(source_rate=args.source_rate),
    )
    print(f"profiled {topology.name!r} for {report.duration:.2f}s:")
    for name in topology.names:
        profile = report.profiles.get(name)
        if profile is None:
            continue
        mean = profile.mean_service_time
        mean_text = f"{mean * 1e3:8.3f} ms" if mean else "    (idle)"
        print(f"  {name:<24} {profile.items_processed:>8} items "
              f"{mean_text}  gain {profile.gain:.2f}")
    profiled = report.profiled_topology()
    if args.output:
        write_topology(profiled, args.output)
        print(f"profiled topology written to {args.output}")
    return 0


def _run_factories(topology, pad: bool):
    """Operator factories for ``spinstreams run`` and ``profile``: the
    declared classes, optionally padded to their declared service times."""
    from repro.operators.base import instantiate_operator
    from repro.runtime.synthetic import PaddedOperator

    factories = {}
    for spec in topology.operators:
        if not spec.operator_class:
            raise TopologyError(
                f"operator {spec.name!r} has no class to run; "
                "fill <class> in the XML or use `spinstreams simulate`")
        if pad and spec.name != topology.source:
            factories[spec.name] = (
                lambda s=spec: PaddedOperator(
                    instantiate_operator(s.operator_class, s.operator_args),
                    s.service_time,
                )
            )
        else:
            factories[spec.name] = (
                lambda s=spec: instantiate_operator(s.operator_class,
                                                    s.operator_args)
            )
    return factories


def _cmd_run(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    factories = _run_factories(topology, args.pad)

    if args.backend == "process":
        from repro.runtime.procshard import ProcShardConfig, run_sharded

        config = ProcShardConfig(shards=args.shards, seed=args.seed,
                                 source_rate=args.source_rate)
        result = run_sharded(topology, factories,
                             duration=args.duration, config=config)
        print(f"backend: process ({args.shards} shards)")
        for shard in range(args.shards):
            members = sorted(
                f"{name}#{i}" if len(shards_of) > 1 else name
                for name, shards_of in result.placement.items()
                for i, s in enumerate(shards_of) if s == shard)
            print(f"  shard {shard}: {', '.join(members) or '(empty)'}")
        failed = result.failure is not None
        leaked = result.leaked_workers or result.leaked_actors
    else:
        from repro.runtime.system import RuntimeConfig, run_topology

        result = run_topology(
            topology, factories, duration=args.duration,
            config=RuntimeConfig(seed=args.seed,
                                 source_rate=args.source_rate),
        )
        print("backend: threaded")
        failed = result.failure is not None
        leaked = result.leaked_actors

    print(f"ran {result.measurements.duration:.2f}s measured window:")
    print(f"{'operator':<24} {'arrive/s':>10} {'depart/s':>10}")
    for name in topology.names:
        rates = result.vertices.get(name)
        if rates is None:
            continue
        print(f"{name:<24} {rates.arrival_rate:>10,.1f} "
              f"{rates.departure_rate:>10,.1f}")
    dropped = result.measurements.total_dropped()
    if dropped:
        print(f"dropped messages: {dropped}")
    if leaked:
        print(f"leaked: {', '.join(leaked)}")
        failed = True
    if result.failure is not None:
        print(f"failure: {result.failure}")
    return 1 if failed else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.testing import (
        ConformanceConfig,
        check_chaos_seed,
        check_optimizer_seed,
        check_process_seed,
        check_runtime_seed,
        check_seed,
        run_sweep,
        shrink,
        topology_for_seed,
    )

    config = ConformanceConfig(
        profile=args.profile,
        base_seed=args.base_seed,
        items=args.items,
        optimizer=not args.no_optimizer,
    )

    if args.seed is not None:
        # Single-seed replay: the debugging entry point for a failure
        # reported by a sweep (or by CI).
        reports = [check_seed(args.seed, config)]
        if config.optimizer:
            reports.append(check_optimizer_seed(args.seed, config))
        if args.runtime_seeds > 0:
            reports.append(check_runtime_seed(args.seed, config))
        if args.process_seeds > 0:
            reports.append(check_process_seed(args.seed, config))
        if args.chaos_seeds > 0:
            reports.append(check_chaos_seed(args.seed, config))
        for report in reports:
            print(report.summary())
        from repro import instrumentation
        print(instrumentation.summary())
        failed = [r for r in reports if not r.ok]
        if failed and not args.no_shrink and not reports[0].ok:
            _shrink_and_print(args.seed, config, check_seed, shrink,
                              topology_for_seed)
        return 1 if failed else 0

    outcome = run_sweep(args.seeds, config, runtime_seeds=args.runtime_seeds,
                        chaos_seeds=args.chaos_seeds,
                        process_seeds=args.process_seeds,
                        workers=args.workers)
    print(outcome.summary())
    from repro import instrumentation
    print(instrumentation.summary())
    if outcome.ok:
        return 0
    simulator_failures = [r for r in outcome.failures
                          if r.backend == "simulator" and r.seed is not None]
    if simulator_failures and not args.no_shrink:
        _shrink_and_print(simulator_failures[0].seed, config, check_seed,
                          shrink, topology_for_seed)
    return 1


def _shrink_and_print(seed, config, check_seed, shrink_fn,
                      topology_for_seed) -> None:
    """Minimize the failing topology of ``seed`` and print the kernel."""
    topology = topology_for_seed(seed, config)

    def still_fails(candidate):
        return not check_seed(seed, config, topology=candidate).ok

    result = shrink_fn(topology, still_fails)
    print(f"\nshrinking seed {seed}: {len(result.original)} -> "
          f"{len(result.reduced)} operators in {len(result.steps)} steps")
    for step in result.steps:
        print(f"  {step}")
    print("\nminimal failing topology:")
    print(result.reduced.describe())
    report = check_seed(seed, config, topology=result.reduced)
    print(report.summary())
    if result.lint is not None and not result.lint.clean:
        print("\nstatic checks of the reduced topology:")
        print(result.lint.render())


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.plan import FaultPlanConfig, chaos_profile
    from repro.sim.network import SimulationConfig, build_engine
    from repro.testing import ConformanceConfig, topology_for_seed

    if args.recover:
        return _chaos_recover(args)

    fault_config = FaultPlanConfig(
        crashes_per_operator=args.crashes,
        poisons_per_operator=args.poisons,
        slowdowns_per_operator=args.slowdowns,
        drop_windows_per_operator=args.drop_windows,
    )
    conf = ConformanceConfig(profile=args.profile)
    run_runtime = args.backend in ("runtime", "both")
    if args.topology is not None:
        topology = parse_topology(args.topology)
    elif run_runtime:
        # Wall-clock backends need slow (4-8ms) operators to measure.
        topology = topology_for_seed(
            args.seed, conf, generator=conf.runtime_generator_config())
    else:
        topology = topology_for_seed(args.seed, conf)

    base = analyze(topology)
    items = (max(int(base.throughput * args.duration), 50)
             if run_runtime else args.items)
    profile = chaos_profile(topology, args.seed, fault_config, items=items)

    print(f"topology: {topology.name} ({len(topology)} operators), "
          f"chaos seed {args.seed}, {items} items")
    print(profile.plan.describe())
    print(f"\npredicted: base {base.throughput:,.1f} items/s -> derated "
          f"{profile.derated.throughput:,.1f} items/s "
          f"(degradation {profile.predicted_degradation:.1%})")

    failed = False
    if args.backend in ("sim", "both"):
        failed |= _chaos_sim(args, topology, profile, base,
                             SimulationConfig, build_engine, items)
    if run_runtime:
        failed |= _chaos_runtime(args, topology, profile, base)
    return 1 if failed else 0


def _chaos_recover(args) -> int:
    """Effectively-once sweep: crash + restore must be bit-equal."""
    from repro.testing import check_recovery_seed
    from repro.testing.differential import DifferentialConfig

    config = DifferentialConfig(items=args.recover_items)
    first = args.seed
    seeds = range(first, first + args.recover_seeds)
    print(f"recovery sweep: seeds {first}..{first + args.recover_seeds - 1}, "
          f"{args.recover_items} items per run")
    failed = 0
    attempts = 0
    for seed in seeds:
        mode = ("meta", "loop")[seed % 2]
        batch = (1, 8)[(seed // 2) % 2]
        report = check_recovery_seed(seed, config, fusion_mode=mode,
                                     batch_size=batch)
        attempts += report.recovery_attempts
        status = "ok" if report.ok else "FAIL"
        print(f"  seed {seed:>3} [{mode}, batch={batch}] {status} "
              f"(rollbacks: {report.recovery_attempts})")
        if not report.ok:
            failed += 1
            print(report.summary())
    print(f"\n{len(list(seeds)) - failed}/{args.recover_seeds} seeds "
          f"bit-equal after crash+recover ({attempts} rollbacks total)")
    return 1 if failed else 0


def _chaos_supervision_lines(events, dead_letter_counts) -> None:
    """Print the supervision/dead-letter section shared by both backends."""
    by_directive: dict = {}
    for event in events:
        by_directive[event.directive] = by_directive.get(event.directive, 0) + 1
    summary = ", ".join(f"{d}={n}" for d, n in sorted(by_directive.items()))
    print(f"  supervision events: {len(events)} ({summary or 'none'})")
    for event in events[:10]:
        print(f"    {event.describe()}")
    if len(events) > 10:
        print(f"    ... {len(events) - 10} more")
    total_dead = sum(dead_letter_counts.values())
    detail = ", ".join(f"{v}={n}" for v, n in sorted(dead_letter_counts.items()))
    print(f"  dead letters: {total_dead}" + (f" ({detail})" if detail else ""))


def _chaos_sim(args, topology, profile, base,
               SimulationConfig, build_engine, items) -> bool:
    """Run (twice, for the replay check) on the simulator; True = failed."""

    def run_once():
        sim_config = SimulationConfig(
            mailbox_capacity=args.mailbox_capacity,
            service_family="deterministic", routing="proportional",
            items=items, seed=args.seed,
            fault_plan=profile.plan, supervisor=profile.strategy,
            on_deadlock="report",
        )
        engine, _ = build_engine(topology, sim_config)
        measurements = engine.run(until=profile.horizon, warmup=0.0)
        return engine, measurements

    engine, measurements = run_once()
    vertices = measurements.vertex_rates()
    measured = vertices[topology.source].departure_rate
    degradation = (1.0 - measured / base.throughput
                   if base.throughput > 0 else 0.0)
    error = (abs(measured - profile.derated.throughput)
             / profile.derated.throughput
             if profile.derated.throughput > 0 else 0.0)
    print(f"\nsimulator: measured {measured:,.1f} items/s "
          f"(degradation {degradation:.1%}, "
          f"error vs derated model {error:.1%})")
    _chaos_supervision_lines(engine.supervision.events,
                            engine.dead_letters.counts())
    failed = error > args.tolerance
    if measurements.deadlock is not None:
        print(f"  watchdog: {measurements.deadlock.describe()}")
        failed = True
    if measurements.halted is not None:
        print(f"  halted: {measurements.halted}")
        failed = True

    replay_engine, _ = run_once()
    deterministic = (replay_engine.supervision.signature()
                     == engine.supervision.signature())
    print(f"  replay deterministic: {'yes' if deterministic else 'NO'}")
    if not deterministic:
        failed = True
    if failed:
        print("  verdict: FAIL")
    return failed


def _chaos_runtime(args, topology, profile, base) -> bool:
    """Run once on the threaded actor runtime; True = failed."""
    from repro.runtime.system import RuntimeConfig, run_topology
    from repro.testing.harness import padded_factories

    result = run_topology(
        topology, padded_factories(topology, args.seed),
        duration=args.duration, warmup=0.0,
        config=RuntimeConfig(
            mailbox_capacity=16,
            source_rate=topology.operator(topology.source).service_rate,
            seed=args.seed,
            fault_plan=profile.plan, supervisor=profile.strategy,
        ),
    )
    measured = result.vertices[topology.source].departure_rate
    degradation = (1.0 - measured / base.throughput
                   if base.throughput > 0 else 0.0)
    error = (abs(measured - profile.derated.throughput)
             / profile.derated.throughput
             if profile.derated.throughput > 0 else 0.0)
    print(f"\nruntime: measured {measured:,.1f} items/s "
          f"(degradation {degradation:.1%}, "
          f"error vs derated model {error:.1%})")
    _chaos_supervision_lines(result.supervision.events,
                            result.dead_letters.counts())
    print(f"  dropped messages: {result.measurements.total_dropped()}")
    failed = False
    if result.watchdog is not None and result.watchdog.verdict:
        print(f"  watchdog: {result.watchdog.describe()}")
        failed = True
    if result.leaked_actors:
        print(f"  leaked threads: {', '.join(result.leaked_actors)}")
        failed = True
    if result.failure is not None:
        print(f"  failure: {result.failure}")
        failed = True
    # Wall-clock runs are noisy; gate at double the simulator tolerance.
    if error > 2 * args.tolerance:
        failed = True
    if failed:
        print("  verdict: FAIL")
    return failed


def _cmd_adapt(args: argparse.Namespace) -> int:
    import json

    from repro.testing import (
        check_adaptive_chaos_seed,
        check_adaptive_seed,
        check_migration_seed,
        check_stationary_seed,
    )

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.base_seed, args.base_seed + args.seeds))
    if args.mode == "stationary":
        check = check_stationary_seed
    elif args.mode == "chaos":
        check = check_adaptive_chaos_seed
    elif args.mode == "migration":
        check = lambda seed: check_migration_seed(seed, fused=args.fused)  # noqa: E731
    else:
        check = check_adaptive_seed
    logs = [] if args.output else None
    failed = 0
    for seed in seeds:
        if args.mode == "shift" and logs is not None:
            report = check_adaptive_seed(seed, decision_sink=logs)
        else:
            report = check(seed)
        status = "ok" if report.ok else "FAIL"
        backend = getattr(report, "backend", None) or report.mode_b
        fires = ""
        if logs is not None and args.mode == "shift":
            fired = sum(1 for d in logs[-1]["decisions"] if d["fired"])
            fires = (f" shift={logs[-1]['shift_vertex']}"
                     f"x{logs[-1]['shift_factor']:g} fires={fired}")
        print(f"  seed {seed:>3} [{backend}] {status}{fires}")
        if not report.ok:
            failed += 1
            summary = report.summary
            print(summary() if callable(summary) else summary)
    if args.output and logs is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(logs, handle, indent=2)
        print(f"decision log written to {args.output}")
    print(f"{len(seeds) - failed}/{len(seeds)} seeds ok")
    return 1 if failed else 0


def _cmd_memory(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    estimate = estimate_memory(
        topology, source_rate=args.source_rate,
        mailbox_capacity=args.mailbox_capacity,
        bytes_per_item=args.bytes_per_item,
    )
    print(memory_report(estimate))
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    if args.format == "json":
        text = deployment_json(topology)
    elif args.format == "flink":
        text = flink_sketch(topology)
    else:
        text = storm_sketch(topology)
    _write_or_print(text, args.output)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    analysis = analyze(topology, source_rate=args.source_rate)
    _write_or_print(topology_to_dot(topology, analysis), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstreams",
        description="Static optimization of data stream processing topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def topology_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("topology", help="XML topology description")
        p.add_argument("--source-rate", type=float, default=None,
                       help="source generation rate (items/sec)")

    p = sub.add_parser(
        "lint",
        help="static checks: graph verifier + operator-code analyzer "
             "+ deployment-safety pass")
    topology_arg(p)
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable JSON report")
    p.add_argument("--sarif", action="store_true",
                   help="emit a SARIF 2.1.0 log (PR annotations)")
    p.add_argument("--no-code", action="store_true",
                   help="skip the operator-code pass (classes not "
                        "importable here)")
    p.add_argument("--backend", choices=["threaded", "process", "elastic"],
                   default=None,
                   help="also run the SS3xx deployment-safety operator "
                        "rules for this target backend")
    p.add_argument("--plan", action="store_true",
                   help="also run the SS3xx plan/config verifier "
                        "(placement, latency budget, checkpoint overhead)")
    p.add_argument("--shards", type=int, default=None,
                   help="shard count for the process placement the plan "
                        "verifier checks")
    p.add_argument("-o", "--output", default=None,
                   help="write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("analyze", help="steady-state analysis (Algorithm 1)")
    topology_arg(p)
    p.add_argument("--measure", action="store_true",
                   help="also measure via the discrete-event simulator")
    p.add_argument("--items", type=int, default=200_000)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize",
                       help="bottleneck elimination via fission (Algorithm 2)")
    topology_arg(p)
    p.add_argument("--max-replicas", type=int, default=None,
                   help="hold-off bound on the total number of replicas")
    p.add_argument("-o", "--output", default=None,
                   help="write the optimized topology XML here")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("candidates", help="ranked fusion candidates")
    topology_arg(p)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-utilization", type=float, default=0.75)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("fuse", help="fuse a sub-graph (Algorithm 3)")
    topology_arg(p)
    p.add_argument("--ops", required=True,
                   help="comma-separated operator names to fuse")
    p.add_argument("--name", default=None, help="name of the fused operator")
    p.add_argument("-o", "--output", default=None,
                   help="write the fused topology XML here")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("simulate",
                       help="measure on the discrete-event backend")
    topology_arg(p)
    p.add_argument("--items", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mailbox-capacity", type=int, default=64)
    p.add_argument("--per-operator", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="generate SS2Py code")
    p.add_argument("topology", help="XML topology description")
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("random",
                       help="generate a random testbed topology (Algorithm 5)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("latency",
                       help="static end-to-end latency estimate (extension)")
    topology_arg(p)
    p.add_argument("--assumption", default="markovian",
                   choices=("deterministic", "markovian", "md1"))
    p.add_argument("--mailbox-capacity", type=int, default=64)
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("autofuse",
                       help="automatic fusion of under-utilized sub-graphs "
                            "(extension)")
    topology_arg(p)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-utilization", type=float, default=0.75)
    p.add_argument("--headroom", type=float, default=0.9)
    p.add_argument("-o", "--output", default=None,
                   help="write the compacted topology XML here")
    p.set_defaults(func=_cmd_autofuse)

    p = sub.add_parser("profile",
                       help="run the application on the actor runtime and "
                            "measure its operators")
    topology_arg(p)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--pad", action="store_true",
                   help="pad operators to their declared service times "
                        "(emulate the declared application)")
    p.add_argument("-o", "--output", default=None,
                   help="write the re-profiled topology XML here")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("run",
                       help="execute the application on a wall-clock "
                            "backend (threaded actors or multi-process "
                            "shards)")
    topology_arg(p)
    p.add_argument("--backend", default="threaded",
                   choices=("threaded", "process"),
                   help="threaded: one actor thread per replica under "
                        "the GIL; process: shard worker processes with "
                        "solver-driven placement")
    p.add_argument("--shards", type=int, default=2,
                   help="worker processes for --backend process")
    p.add_argument("--duration", type=float, default=3.0,
                   help="wall-clock seconds to run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pad", action="store_true",
                   help="pad operators to their declared service times")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("conformance",
                       help="differential conformance sweep: model vs. "
                            "simulator vs. runtime on random testbeds")
    p.add_argument("--seeds", type=int, default=25,
                   help="number of consecutive seeds to sweep")
    p.add_argument("--seed", type=int, default=None,
                   help="replay a single seed instead of sweeping")
    p.add_argument("--base-seed", type=int, default=100,
                   help="first seed of the sweep")
    p.add_argument("--profile", default="tree", choices=("tree", "dag"),
                   help="testbed shape: trees check at 2%%, dags at 10%%")
    p.add_argument("--items", type=int, default=30_000,
                   help="simulated items per check")
    p.add_argument("--runtime-seeds", type=int, default=5,
                   help="how many seeds also run on the wall-clock "
                        "actor runtime (0 disables)")
    p.add_argument("--process-seeds", type=int, default=0,
                   help="how many seeds also run on the multi-process "
                        "sharded backend (0 disables; these fork real "
                        "worker processes)")
    p.add_argument("--no-optimizer", action="store_true",
                   help="skip the optimizer-pipeline checks")
    p.add_argument("--no-shrink", action="store_true",
                   help="do not minimize the first failing topology")
    p.add_argument("--chaos-seeds", type=int, default=0,
                   help="how many seeds also run the degraded-mode "
                        "(fault-injected) simulator check (0 disables)")
    p.add_argument("--workers", type=int, default=None,
                   help="fan the virtual-time checks over this many "
                        "processes (bit-identical to serial; default "
                        "serial)")
    p.set_defaults(func=_cmd_conformance)

    p = sub.add_parser("adapt",
                       help="online re-optimization conformance: seeded "
                            "phase shifts, stationary negative controls, "
                            "chaos interaction and zero-loss migrations")
    p.add_argument("--seeds", type=int, default=2,
                   help="number of consecutive seeds to sweep")
    p.add_argument("--seed", type=int, default=None,
                   help="replay a single seed instead of sweeping")
    p.add_argument("--base-seed", type=int, default=100,
                   help="first seed of the sweep")
    p.add_argument("--mode", default="shift",
                   choices=("shift", "stationary", "chaos", "migration"),
                   help="shift: mid-run service-time shift, controller "
                        "must fire and land on the re-solved model; "
                        "stationary: no shift, controller must stand "
                        "pat; chaos: crashes during reconfiguration; "
                        "migration: bit-equality under live state moves")
    p.add_argument("--fused", action="store_true",
                   help="migration mode: migrate fused meta-operator "
                        "members instead of standalone actors")
    p.add_argument("-o", "--output", default=None,
                   help="write the controller decision logs as JSON "
                        "(shift mode; the nightly CI artifact)")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("chaos",
                       help="fault-injection run: supervision events, dead "
                            "letters, watchdog verdicts and throughput "
                            "degradation vs. the derated model")
    p.add_argument("--seed", type=int, default=1,
                   help="fault-plan (and topology) seed; the same seed "
                        "replays the identical fault sequence")
    p.add_argument("--topology", default=None,
                   help="XML topology (default: the seed's random testbed)")
    p.add_argument("--backend", default="sim",
                   choices=("sim", "runtime", "both"))
    p.add_argument("--profile", default="tree", choices=("tree", "dag"))
    p.add_argument("--items", type=int, default=30_000,
                   help="simulated items (sim backend)")
    p.add_argument("--duration", type=float, default=3.0,
                   help="wall-clock seconds (runtime backend)")
    p.add_argument("--mailbox-capacity", type=int, default=64)
    p.add_argument("--crashes", type=float, default=1.0,
                   help="expected operator crashes per faulty operator")
    p.add_argument("--poisons", type=float, default=2.0,
                   help="expected poison tuples per faulty operator")
    p.add_argument("--slowdowns", type=float, default=0.5,
                   help="expected slowdown windows per faulty operator")
    p.add_argument("--drop-windows", type=float, default=0.0,
                   help="expected mailbox drop windows per faulty operator")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="max relative error vs. the derated model")
    p.add_argument("--recover", action="store_true",
                   help="effectively-once sweep: crash operators, roll "
                        "back to the last checkpoint and require output "
                        "bit-equal to a fault-free run")
    p.add_argument("--recover-seeds", type=int, default=4,
                   help="how many consecutive seeds the --recover sweep "
                        "covers (starting at --seed)")
    p.add_argument("--recover-items", type=int, default=300,
                   help="source items per --recover run (these runs are "
                        "wall-clock, so keep this modest)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("memory",
                       help="static memory-footprint estimate (extension)")
    topology_arg(p)
    p.add_argument("--mailbox-capacity", type=int, default=64)
    p.add_argument("--bytes-per-item", type=float, default=128.0)
    p.set_defaults(func=_cmd_memory)

    p = sub.add_parser("deploy",
                       help="export the optimization as a deployment plan")
    p.add_argument("topology", help="XML topology description")
    p.add_argument("--format", default="json",
                   choices=("json", "flink", "storm"))
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_deploy)

    p = sub.add_parser("render", help="Graphviz DOT rendering")
    topology_arg(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TopologyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
