"""Smoke test of the benchmark itself (outside tier-1 ``testpaths``).

Run explicitly: ``python -m pytest bench/test_smoke.py``.  It drives
``python -m bench run --quick`` — tiny sizes, numbers that mean nothing —
and checks the shape of the output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args: str, timeout: float = 120.0):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def test_benchmark_json_is_within_the_contract_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("seed", [42, 43])
def test_quick_suite_reports_every_metric_of_every_workload(tmp_path, seed):
    spec = _spec()
    out = tmp_path / "quick.json"
    done = _bench("run", "--quick", "--trace", "--seed", str(seed),
                  "-o", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    runs = {run["workload"]: run for run in json.loads(out.read_text())["runs"]}
    assert list(runs) == [w["name"] for w in spec["workloads"]]
    for run in runs.values():
        assert run["correct"] and run["failed"] == 0, run["problems"]
        for kind in ("end_to_end", "per_layer"):
            assert list(run[kind]) == [m["name"] for m in spec[kind]]
            for metric, wanted in zip(run[kind].values(), spec[kind]):
                assert metric["unit"] == wanted["unit"]
                assert isinstance(metric["value"], (int, float))
        assert all(m["value"] > 0 for m in run["end_to_end"].values())
        assert os.path.exists(os.path.join(ROOT, run["trace_file"]))
        assert {"cpu_count", "python", "switch_interval_s", "commit", "seed",
                "load_average", "host.spin_mops", "noisy"} <= set(run["host"])


def test_single_workload_ends_with_the_contract_line():
    spec = _spec()
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench("run", "--quick", "--workload", "hop_chain",
                      "--seed", "7", "--seconds", "0.6", "--trace", trace)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[kind]]


def test_compare_flags_a_worse_row(tmp_path):
    out = tmp_path / "a.json"
    assert _bench("run", "--quick", "--workload", "hop_chain",
                  "-o", str(out)).returncode == 0
    same = _bench("compare", str(out), str(out))
    assert same.returncode == 0, same.stdout
    suite = json.loads(out.read_text())
    slow = suite["runs"][0]["end_to_end"]["ops_per_s"]
    for key in ("value", "q1", "q3"):
        slow[key] *= 0.5
    slow["samples"] = [sample * 0.5 for sample in slow["samples"]]
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(suite))
    flagged = _bench("compare", str(out), str(worse))
    assert flagged.returncode == 1
    assert "hop_chain ops_per_s" in flagged.stdout
