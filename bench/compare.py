"""``python3 -m bench compare A.json B.json``: B against A.

One row per (workload, end-to-end metric) with both medians and
quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the wider of the two
  spreads (quartile distance over median);
* ``unresolved`` — a spread is wider than the bound, so a change of the
  size the bound guards against could hide in it — unless every sample
  of one side beats every sample of the other, which still decides; also
  a would-be ``worse`` row of a run whose host record says ``noisy``
  (its spin calibrations before and after disagree): a disturbed run is
  not a regression;
* ``same`` otherwise.

Counts the program makes deterministically (:data:`EXACT`) must be
identical when both files ran the same seed.  Exit status 1 on any
``worse`` row or count mismatch.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

#: Per-layer figures that repeat exactly for a given seed.
EXACT = ("ideal_reached_frac", "model_error_mean_pct", "sim.events",
         "sim.model_error_max_pct", "core.solve_requests",
         "core.full_solves", "core.incremental_solves", "core.cache_hits",
         "core.replicas_added", "core.operators_fused",
         "checkpoint.epochs_completed", "system.actors")


def _load(path: str) -> Dict[Tuple[str, bool], Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    return {(run["workload"], run["traced"]): run for run in runs}


def _spread(metric: Dict[str, Any]) -> float:
    return ((metric["q3"] - metric["q1"]) / abs(metric["value"])
            if metric["value"] else 0.0)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """Verdict on metric record ``b`` against ``a`` (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(_spread(a), _spread(b))
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a["samples"]
               for y in b["samples"]):
            return "worse"
        if all(sign * (y - x) < 0 for x in a["samples"]
               for y in b["samples"]):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread and -worse_by > 0.0:
        return "better"
    return "same"


def compare_files(path_a: str, path_b: str) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    a_runs, b_runs = _load(path_a), _load(path_b)
    bad: List[str] = []
    print(f"{'workload':<15} {'metric':<15} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_run = a_runs.get((workload, False)) or a_runs.get((workload, True))
        b_run = b_runs.get((workload, False)) or b_runs.get((workload, True))
        if a_run is None or b_run is None:
            continue
        for metric in spec["end_to_end"]:
            a = a_run["end_to_end"][metric["name"]]
            b = b_run["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse" and (a_run["host"]["noisy"]
                                      or b_run["host"]["noisy"]):
                result = "unresolved (noisy host)"
            if result == "worse":
                bad.append(f"{workload} {metric['name']}")
            cells = [f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
                     for m in (a, b)]
            print(f"{workload:<15} {metric['name']:<15} {cells[0]:>34} "
                  f"{cells[1]:>34}  {result}")
        a_traced = a_runs.get((workload, True))
        b_traced = b_runs.get((workload, True))
        if (a_traced and b_traced
                and a_traced["seed"] == b_traced["seed"]
                and a_traced["quick"] == b_traced["quick"]):
            for name in EXACT:
                x = a_traced["per_layer"][name]["value"]
                y = b_traced["per_layer"][name]["value"]
                if x != y:
                    bad.append(f"{workload} {name}")
                    print(f"{workload:<15} {name}: {x!r} != {y!r}  "
                          "count mismatch")
    for side, runs in (("A", a_runs), ("B", b_runs)):
        noisy = sorted({w for (w, _), run in runs.items()
                        if run["host"]["noisy"]})
        if noisy:
            print(f"{side}: host was noisy during {', '.join(noisy)}")
    if bad:
        print("WORSE: " + "; ".join(bad))
        return 1
    print("no row is worse")
    return 0
