"""The runner: one workload for ``--seconds``, then its metrics.

A run sets the workload up, repeats its closed-loop / pass phase until
that phase's share of ``--seconds`` is used, runs its paced phase once,
and reduces the samples to the metrics ``BENCHMARK.json`` names: every
end-to-end figure is a median over the run's samples with ``n``, ``q1``
and ``q3``.  With ``--trace`` the repeats alternate tracer on / off —
end-to-end figures still come from the untraced repeats, the traced ones
give the per-layer figures and ``trace.overhead_ratio`` — and the layer
cases run afterwards.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import host
from bench.layers import run_layer_cases
from bench.trace import Tracer
from bench.workloads import WORKLOADS, Phase, Sample

OUT_DIR = os.path.join(host.ROOT, "bench", "out")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(host.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _span_shares(tracer: Tracer, root: int) -> Dict[str, float]:
    """Per-layer ``<span>_share`` figures of the spans under ``root``:
    each span name's seconds as a share of the root span's, plus the
    share the child spans cover together."""
    if len(tracer.spans) <= root:
        return {}
    _, started, ended, _ = tracer.spans[root]
    shares = {f"{name}_share": seconds / (ended - started)
              for name, seconds in tracer.totals(root + 1).items()}
    shares["trace.span_coverage_frac"] = tracer.coverage(root) or 0.0
    return shares


def _run_phase(phase: Phase, state: Dict[str, Any], tracer: Tracer,
               budget: float, trace: bool) -> List[Tuple[bool, Sample]]:
    """Repeat ``phase`` within ``budget`` -> ``[(traced, sample), ...]``.

    The budget is spent by the seconds the repeats *timed* (their
    untimed build, stop and output checks come on top).  At least two
    repeats (so a traced run has both kinds); another one starts only
    while, going by the median repeat so far, at least a third of it
    fits — a 4 s optimize pass gets its third repeat in 10 s.
    """
    out: List[Tuple[bool, Sample]] = []
    durations: List[float] = []
    while True:
        tracer.enabled = trace and len(durations) % 2 == 0
        mark = tracer.mark()
        started = time.perf_counter()
        samples = phase.unit(state, tracer, budget)
        # A repeat that timed nothing (it failed) still uses up budget.
        durations.append(sum(sample.seconds for sample in samples)
                         or time.perf_counter() - started)
        if tracer.enabled and phase.rooted:
            samples[0].layers.update(_span_shares(tracer, mark))
        out.extend((tracer.enabled, sample) for sample in samples)
        tracer.enabled = False
        if not phase.repeat:
            return out
        if (len(durations) >= 2 and sum(durations)
                + statistics.median(durations) / 3.0 > budget):
            return out


def _prefer_untraced(samples: List[Tuple[bool, Sample]], keep) -> List[Sample]:
    kept = [(traced, s) for traced, s in samples if keep(s)]
    untraced = [s for traced, s in kept if not traced]
    return untraced or [s for _, s in kept]


def _metric(values: List[float], unit: str) -> Dict[str, Any]:
    median, q1, q3 = host.summary(values)
    return {"value": median, "unit": unit, "n": len(values),
            "q1": q1, "q3": q3, "samples": values}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, import_s: float) -> Dict[str, Any]:
    """Run one workload; returns its full record (see README)."""
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[name]
    spin_before = host.spin_mops()
    tracer = Tracer(name)

    with host.pinned(workload.pin):
        tracer.enabled = trace
        with tracer.span(f"{name}.setup") as setup:
            state = workload.setup(seed, quick, tracer)
        tracer.enabled = False
        layers = _span_shares(tracer, 0) if trace else {}
        layers.pop("trace.span_coverage_frac", None)
        samples: List[Tuple[bool, Sample]] = []
        for phase in workload.phases:
            samples += _run_phase(phase, state, tracer,
                                  phase.share * seconds, trace)

    # ---- end-to-end: medians over the untraced samples -----------------
    timed = _prefer_untraced(samples, lambda s: s.seconds > 0.0)
    with_latency = _prefer_untraced(samples,
                                    lambda s: len(s.latencies_ms) >= 5)
    per_repeat_setup = [s.setup_s for _, s in samples if s.setup_s > 0.0]
    end_to_end = {
        "setup_s": [import_s + setup.seconds + extra
                    for extra in per_repeat_setup or [0.0]],
        "ops_per_s": [s.ops / s.seconds for s in timed],
        "latency_p50_ms": [host.percentile(s.latencies_ms, 0.50)
                           for s in with_latency],
        "latency_p90_ms": [host.percentile(s.latencies_ms, 0.90)
                           for s in with_latency],
        "peak_rss_mb": [host.peak_rss_mb()],
    }
    problems = list(state.get("problems", ()))  # set-up findings
    failed = len(problems) + sum(s.failed for _, s in samples)
    problems += [p for _, s in samples for p in s.problems]
    attempted = sum(s.attempted for _, s in samples)
    for metric, values in end_to_end.items():
        if not values:
            failed += 1
            problems.append(f"no sample for {metric}")
            end_to_end[metric] = [0.0]

    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
        "traced": trace,
        "end_to_end": {metric: _metric(values, units[metric])
                       for metric, values in end_to_end.items()},
    }

    # ---- per layer: traced samples, set-up spans, layer cases ----------
    if trace:
        for layer in {n for _, s in samples for n in s.layers}:
            traced = [s.layers[layer] for was, s in samples
                      if was and layer in s.layers]
            layers[layer] = statistics.median(
                traced or [s.layers[layer] for _, s in samples
                           if layer in s.layers])
        with host.pinned():
            layers.update(run_layer_cases(quick))
        # The tail is shown with its sample count, not gated: it swings
        # 2x run to run on a shared host.
        pooled = sorted(ms for s in with_latency for ms in s.latencies_ms)
        if pooled:
            layers.update({"latency_p99_ms": host.percentile(pooled, 0.99),
                           "latency_max_ms": pooled[-1],
                           "latency_samples": len(pooled)})
        rates = {was: [s.ops / s.seconds for traced, s in samples
                       if traced is was and s.seconds > 0.0]
                 for was in (True, False)}
        if rates[True] and rates[False]:
            layers["trace.overhead_ratio"] = (
                statistics.median(rates[False])
                / statistics.median(rates[True]))
        if name == "hop_chain":
            # All three actors share the GIL, so a tuple costs the sum
            # over them of hand-off + handle + route (README,
            # "Interaction"); this is how much of it the cases explain.
            layers["model.hop_explained_frac"] = (
                3.0 * (layers["mailbox.handoff_us"]
                       + layers["actors.handle_us"]
                       + layers["actors.route_us"]) * 1e-6
                * record["end_to_end"]["ops_per_s"]["value"])
        if name == "optimize50" and not quick:
            coverage = layers.get("trace.span_coverage_frac", 0.0)
            if coverage < 0.95:
                failed += 1
                problems.append(f"layer spans cover only {coverage:.1%} of "
                                "the optimize pass")
        layers["failed_ops_frac"] = failed / max(attempted, 1)
        # A layer a workload does no work in reads 0 there.
        record["per_layer"] = {
            m["name"]: {"value": layers.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in spec["per_layer"]}
        record["trace_file"] = os.path.relpath(
            tracer.write(OUT_DIR, seed), host.ROOT)

    record.update({
        "correct": failed == 0, "attempted": max(attempted, 1),
        "failed": failed, "problems": problems,
        "host": host.host_facts(seed, spin_before, host.spin_mops()),
    })
    return record


def contract_line(record: Dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    metrics = record["per_layer"] if record["traced"] else record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })


def format_record(record: Dict[str, Any]) -> str:
    lines = [f"== {record['workload']} (seed {record['seed']}, "
             f"{record['seconds']:g} s"
             f"{', traced' if record['traced'] else ''}"
             f"{', NOISY HOST' if record['host']['noisy'] else ''})"]
    for name, m in record["end_to_end"].items():
        lines.append(f"  {name:<32} {m['value']:>14.4f} {m['unit']:<6} "
                     f"n={m['n']} q1={m['q1']:.4f} q3={m['q3']:.4f}")
    for name, m in record.get("per_layer", {}).items():
        lines.append(f"  {name:<32} {m['value']:>14.4f} {m['unit']}")
    lines.append(f"  attempted {record['attempted']}, failed "
                 f"{record['failed']}")
    lines += [f"  PROBLEM: {problem}" for problem in record["problems"][:10]]
    return "\n".join(lines)


def run_suite(workloads: List[str], seed: int, seconds: float,
              traces: List[bool], quick: bool, import_s: float,
              output: Optional[str]) -> List[Dict[str, Any]]:
    """Run each of ``workloads`` once per entry of ``traces``.

    A single run happens in this process.  Several each get a fresh
    interpreter, so one workload's imports, caches and peak RSS are not
    another's ``setup_s`` and ``peak_rss_mb``.
    """
    records = []
    for name in workloads:
        for traced in traces:
            if len(workloads) * len(traces) == 1:
                record = run_workload(name, seed, seconds, traced, quick,
                                      import_s)
            else:
                record = _run_in_subprocess(name, seed, seconds, traced,
                                            quick)
            print(format_record(record), flush=True)
            records.append(record)
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "runs": records}, handle, indent=1)
            handle.write("\n")
        print(f"results written to {output}")
    return records


def _run_in_subprocess(name: str, seed: int, seconds: float, traced: bool,
                       quick: bool) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"record-{name}-{int(traced)}.json")
    command = [sys.executable, "-m", "bench", "run", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced)), "-o", path]
    done = subprocess.run(command + (["--quick"] if quick else []),
                          cwd=host.ROOT, capture_output=True, text=True,
                          timeout=600)
    if not os.path.exists(path):
        raise RuntimeError(f"{name} produced no record (exit status "
                           f"{done.returncode}):\n{done.stderr[-2000:]}")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)["runs"][0]
    os.remove(path)
    return record
