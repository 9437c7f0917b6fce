"""Runtime metrics: per-actor counters and steady-state rate snapshots."""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional


class ActorCounters:
    """Mutable counters updated by one actor thread.

    Counter increments are single bytecode-level operations on ints and
    floats, which CPython's GIL keeps consistent; readers may observe a
    value that is a few messages stale, which is irrelevant for rate
    measurement over seconds.
    """

    __slots__ = ("received", "processed", "emitted", "failed", "dropped",
                 "restarts", "busy_time", "blocked_time", "service_samples",
                 "latency_sum", "latency_count", "cpu_time", "_cpu_clock")

    def __init__(self) -> None:
        self.received = 0
        self.processed = 0
        self.emitted = 0
        #: Items whose operator_function raised; the supervisor decided
        #: what happened to the actor, and the item went to dead letters.
        self.failed = 0
        #: Items this actor failed to deliver downstream because the
        #: destination mailbox stayed full past the put timeout.
        self.dropped = 0
        #: Times this actor's operator was re-instantiated by its
        #: supervisor (Restart directive).
        self.restarts = 0
        self.busy_time = 0.0
        self.blocked_time = 0.0
        #: Reservoir of raw service times, capped by the actor; a packed
        #: double array is a quarter of a float list's size.
        self.service_samples = array("d")
        # End-to-end latency of items consumed here (sinks only);
        # fed by the birth timestamps sources stamp into records.
        self.latency_sum = 0.0
        self.latency_count = 0
        #: CPU seconds of the actor's thread, final once it exited;
        #: while it runs, ``_cpu_clock`` is its CPU-time clock.
        self.cpu_time = 0.0
        self._cpu_clock: Optional[int] = None

    def thread_started(self) -> None:
        """Called first on the actor's thread: track its CPU clock."""
        if hasattr(time, "pthread_getcpuclockid"):
            self._cpu_clock = time.pthread_getcpuclockid(
                threading.get_ident())

    def thread_exiting(self) -> None:
        """Called last on the actor's thread: keep its final CPU time."""
        self.cpu_time = time.thread_time()
        self._cpu_clock = None

    def cpu_seconds(self) -> float:
        """CPU seconds the actor's thread has used so far."""
        clock = self._cpu_clock
        if clock is not None:
            try:
                used = time.clock_gettime(clock)
            except OSError:  # the thread exited since the read above
                used = None
            # A clock read after the thread exited could be a new
            # thread's that reused its id: trust it only if the thread
            # was still running when it was read.
            if used is not None and self._cpu_clock is not None:
                return used
        return self.cpu_time

    def snapshot(self) -> "CounterSnapshot":
        return CounterSnapshot(
            received=self.received,
            processed=self.processed,
            emitted=self.emitted,
            failed=self.failed,
            dropped=self.dropped,
            restarts=self.restarts,
            busy_time=self.busy_time,
            blocked_time=self.blocked_time,
            latency_sum=self.latency_sum,
            latency_count=self.latency_count,
            cpu_time=self.cpu_seconds(),
        )

    def mean_service_time(self) -> Optional[float]:
        """Mean profiled service time, or ``None`` without samples."""
        if self.processed == 0:
            return None
        return self.busy_time / self.processed


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable copy of an actor's counters at one instant."""

    received: int = 0
    processed: int = 0
    emitted: int = 0
    failed: int = 0
    dropped: int = 0
    restarts: int = 0
    busy_time: float = 0.0
    blocked_time: float = 0.0
    latency_sum: float = 0.0
    latency_count: int = 0
    #: CPU seconds the actor's thread used (its own clock, so time
    #: other threads ran is not in it).
    cpu_time: float = 0.0


@dataclass(frozen=True)
class ActorRates:
    """Measured steady-state rates of one actor over a window."""

    name: str
    vertex: str
    arrival_rate: float
    processing_rate: float
    departure_rate: float
    utilization: float
    blocked_fraction: float
    mean_latency: Optional[float] = None
    latency_samples: int = 0
    #: Counts over the measurement window (not rates): items whose
    #: processing failed, deliveries dropped on put timeout, restarts.
    failed: int = 0
    dropped: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class RuntimeMeasurements:
    """Rates of a whole actor system over the measurement window."""

    duration: float
    actors: Mapping[str, ActorRates]
    #: Cumulative counters at shutdown (whole run, not just the
    #: measurement window) — where total drop/failure accounting and
    #: the no-fault conformance drop check read from.
    totals: Mapping[str, CounterSnapshot] = field(default_factory=dict)

    def total_dropped(self) -> int:
        """Messages silently lost to put timeouts over the whole run."""
        return sum(s.dropped for s in self.totals.values())

    def total_failed(self) -> int:
        return sum(s.failed for s in self.totals.values())

    def total_restarts(self) -> int:
        return sum(s.restarts for s in self.totals.values())

    def vertex_rates(self) -> Dict[str, ActorRates]:
        """Aggregate actor rates by topology vertex (replicas summed).

        Utilization and blocked fraction take the max across replicas —
        the binding replica is what the cost model reasons about.
        """
        grouped: Dict[str, List[ActorRates]] = {}
        for rates in self.actors.values():
            grouped.setdefault(rates.vertex, []).append(rates)
        out: Dict[str, ActorRates] = {}
        for vertex, members in grouped.items():
            samples = sum(m.latency_samples for m in members)
            if samples:
                mean_latency = sum(
                    (m.mean_latency or 0.0) * m.latency_samples
                    for m in members
                ) / samples
            else:
                mean_latency = None
            out[vertex] = ActorRates(
                name=vertex,
                vertex=vertex,
                arrival_rate=sum(m.arrival_rate for m in members),
                processing_rate=sum(m.processing_rate for m in members),
                departure_rate=sum(m.departure_rate for m in members),
                utilization=max(m.utilization for m in members),
                blocked_fraction=max(m.blocked_fraction for m in members),
                mean_latency=mean_latency,
                latency_samples=samples,
                failed=sum(m.failed for m in members),
                dropped=sum(m.dropped for m in members),
                restarts=sum(m.restarts for m in members),
            )
        return out


def rates_between(
    name: str,
    vertex: str,
    before: CounterSnapshot,
    after: CounterSnapshot,
    duration: float,
) -> ActorRates:
    """Compute actor rates from two snapshots ``duration`` seconds apart."""
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    samples = after.latency_count - before.latency_count
    return ActorRates(
        name=name,
        vertex=vertex,
        arrival_rate=(after.received - before.received) / duration,
        processing_rate=(after.processed - before.processed) / duration,
        departure_rate=(after.emitted - before.emitted) / duration,
        utilization=(after.busy_time - before.busy_time) / duration,
        blocked_fraction=(after.blocked_time - before.blocked_time) / duration,
        mean_latency=((after.latency_sum - before.latency_sum) / samples
                      if samples else None),
        latency_samples=samples,
        failed=after.failed - before.failed,
        dropped=after.dropped - before.dropped,
        restarts=after.restarts - before.restarts,
    )
