"""Host facts, the noise record and the small statistics the runner needs."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Disagreement between the spin calibrations taken before and after a
#: run above which the run is marked noisy.
NOISY_SPIN_DISAGREEMENT = 0.15


def spin_mops() -> float:
    """Fixed spin-loop calibration: million loop iterations per second.

    Best of three short loops, so one preemption does not read as a slow
    host; a disturbed host shows as before/after disagreement.
    """
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i
        best = max(best, 0.5 / (time.perf_counter() - started))
    return best


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts(seed: int, spin_before: float, spin_after: float
               ) -> Dict[str, Any]:
    disagreement = abs(spin_after - spin_before) / max(spin_before,
                                                       spin_after)
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "switch_interval_s": sys.getswitchinterval(),
        "commit": commit(),
        "seed": seed,
        "load_average": list(os.getloadavg()),
        "host.spin_mops": [spin_before, spin_after],
        "noisy": disagreement > NOISY_SPIN_DISAGREEMENT,
    }


@contextlib.contextmanager
def pinned(pin: bool = True) -> Iterator[None]:
    """Run the block on one CPU: the highest allowed one, since CPU 0
    usually also serves the interrupts."""
    allowed = os.sched_getaffinity(0)
    if pin:
        os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * share), len(ordered) - 1)]


def summary(values: List[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)``; the quartiles collapse for fewer than two."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3
