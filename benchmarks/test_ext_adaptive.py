"""Extension benchmark: online re-optimization vs static plan vs reactive
elasticity, live.

The counterpart of ``test_baseline_elasticity.py`` on the wall-clock
runtime: the seed-100 adaptation scenario (:mod:`repro.testing.adaptive`)
runs on the elastic actor system, a mid-run service-time shift turns one
operator into a bottleneck, and the adaptive controller
(:mod:`repro.runtime.adaptive`) must re-solve and rescale.  Figures:

* **time to adapt** — shift to the first applied reconfiguration;
* **time to converge** — shift to the controller standing pat on the
  re-solved plan;
* **delivered fraction** — items the source pushed through over the
  whole post-shift horizon, as a fraction of what an ideally
  pre-provisioned plan would deliver (the adaptation tax: time spent
  saturated before the controller lands on the fix) — for the online
  controller (measured), the never-adapting static plan (analytical)
  and the classic reactive threshold controller
  (:mod:`repro.baselines.elasticity`, simulated: a step-by-step search
  plus reconfiguration downtime).

Asserted: the controller fires and beats the static plan (a 3x margin).
Online vs reactive is printed and not asserted: readings of one commit
on a 2-core VM range 0.72–0.79 against 0.74, inside run-to-run noise.
"""

import time

from repro.baselines.elasticity import (
    ElasticityConfig,
    WorkloadPhase,
    run_elastic,
)
from repro.core.fission import eliminate_bottlenecks
from repro.core.solver import analyze_cached
from repro.sim.network import SimulationConfig
from repro.testing.adaptive import (
    AdaptiveScenarioConfig,
    apply_shift,
    build_scenario,
)

SEED = 100


def run_scenario():
    scenario = AdaptiveScenarioConfig()
    sc = build_scenario(SEED, scenario=scenario)
    system, controller = sc.system, sc.controller
    shifted = sc.shifted_topology
    ideal_plan = eliminate_bottlenecks(
        shifted, source_rate=sc.offered_rate, code_safety="off").optimized
    ideal = analyze_cached(ideal_plan, source_rate=sc.offered_rate).throughput
    static = analyze_cached(shifted, source_rate=sc.offered_rate).throughput

    time_to_adapt = None
    quiet = 0
    system.start()
    try:
        for _ in range(scenario.warmup_ticks):
            time.sleep(scenario.control_period)
            controller.tick()
        source = system.source_actor
        emitted_at_shift = source.counters.emitted
        apply_shift(sc)
        shift_started = time.perf_counter()
        for _ in range(scenario.max_ticks):
            time.sleep(scenario.control_period)
            decision = controller.tick()
            if decision.fired:
                quiet = 0
                if time_to_adapt is None:
                    time_to_adapt = time.perf_counter() - shift_started
            elif (controller.fired_decisions
                  and not decision.reason.startswith("cooldown")):
                quiet += 1
                if quiet >= scenario.settle_ticks:
                    break
        time_to_converge = time.perf_counter() - shift_started
        time.sleep(scenario.measure_duration)
        horizon = time.perf_counter() - shift_started
        delivered = source.counters.emitted - emitted_at_shift
    finally:
        system.stop()

    reactive = run_elastic(
        shifted,
        [WorkloadPhase(rate=sc.offered_rate, duration=horizon)],
        ElasticityConfig(control_period=scenario.control_period),
        SimulationConfig(items=10_000, seed=SEED),
    )
    return {
        "shift": f"{sc.shift_vertex} x{sc.shift_factor:g}",
        "horizon_s": horizon,
        "time_to_adapt_s": time_to_adapt,
        "time_to_converge_s": time_to_converge,
        "reconfigurations": system.reconfigurations,
        "online": delivered / (ideal * horizon),
        "static": static / ideal,
        "reactive": reactive.items_processed / (ideal * horizon),
        "reactive_reconfigurations": reactive.reconfigurations,
        "reactive_downtime_s": reactive.total_downtime,
    }


def test_ext_adaptive_vs_static_and_reactive(benchmark):
    run = benchmark.pedantic(run_scenario, rounds=1, iterations=1)

    adapt = run["time_to_adapt_s"]
    print(f"\nExtension — online adaptation, seed {SEED}, shift "
          f"{run['shift']}, post-shift horizon {run['horizon_s']:.2f} s")
    print(f"time to adapt:    "
          f"{'never' if adapt is None else f'{adapt:.2f} s'}")
    print(f"time to converge: {run['time_to_converge_s']:.2f} s")
    print(f"reconfigurations: {run['reconfigurations']}")
    print(f"{'strategy':<28} {'delivered / ideal':>18}")
    print(f"{'adaptive controller':<28} {run['online']:>18.3f}")
    print(f"{'static plan (analytical)':<28} {run['static']:>18.3f}")
    print(f"{'reactive baseline (DES)':<28} {run['reactive']:>18.3f}"
          f"   ({run['reactive_reconfigurations']} reconfigurations, "
          f"{run['reactive_downtime_s']:.1f} s downtime)")
    print(f"online vs reactive: {run['online'] - run['reactive']:+.3f} "
          f"(not asserted: inside run-to-run noise)")

    assert adapt is not None, "the controller never reconfigured"
    assert run["online"] > run["static"]
