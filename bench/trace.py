"""In-memory span recorder for the ``--trace`` run.

Spans are taken from the benchmark's own code, around the calls into
each layer's public functions, on the driving thread only (actor threads
and shard workers are not instrumented).  Recorded spans stay in memory
and are written to ``bench/out/trace-<workload>.json`` when the run
ends, as ``[name, start, end, parent, workload]`` rows: ``parent`` is the
index of the enclosing span (``None`` at the root) and times are
``time.perf_counter()`` seconds.  A layer's self time is its span's
duration minus the durations of the spans whose ``parent`` it is.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional


class Span:
    """Times one call; appends itself to the tracer only when it records."""

    __slots__ = ("tracer", "name", "index", "start", "seconds")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1
        self.start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.enabled:
            self.index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(self.index)
            tracer.spans.append([self.name, 0.0, None, parent])
        self.start = time.perf_counter()
        if self.index >= 0:
            tracer.spans[self.index][1] = self.start
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self.seconds = end - self.start
        if self.index >= 0:
            self.tracer.spans[self.index][2] = end
            self.tracer._stack.pop()


class Tracer:
    """Span recorder; the runner flips ``enabled`` per repeat."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    def mark(self) -> int:
        """Position to hand to :meth:`totals` later."""
        return len(self.spans)

    def totals(self, since: int = 0) -> Dict[str, float]:
        """Seconds per span name over the spans recorded after ``since``."""
        out: Dict[str, float] = {}
        for name, start, end, _parent in self.spans[since:]:
            if end is not None:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def coverage(self, root: int) -> Optional[float]:
        """Share of span ``root``'s duration covered by its child spans."""
        _name, start, end, _parent = self.spans[root]
        if end is None or end <= start:
            return None
        covered = sum(child[2] - child[1] for child in self.spans[root + 1:]
                      if child[3] == root and child[2] is not None)
        return covered / (end - start)

    def write(self, directory: str, seed: int) -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"trace-{self.workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": self.workload,
                "seed": seed,
                "fields": ["name", "start", "end", "parent", "workload"],
                "spans": [span + [self.workload] for span in self.spans],
            }, handle)
            handle.write("\n")
        return path
