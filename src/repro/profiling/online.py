"""Online estimation of operator parameters from live counter deltas.

The offline profiler (:mod:`repro.profiling.profiler`) measures a run
after the fact; the adaptive controller needs the same figures *while*
the system runs, robust against measurement noise, and — because the
adaptive conformance suite replays scenarios seed by seed — perfectly
deterministic.  Two design rules make that hold:

* **Item-count windows, not wall-clock windows.**  An estimate is a
  function of the counter deltas of the last ``window_ticks`` control
  periods; window boundaries are the controller's tick sequence, never
  ``time.time()``.  Replaying the same tick-delta sequence replays the
  same estimates bit for bit.
* **Confidence gating.**  A window backed by fewer than ``min_items``
  processed items yields an unconfident estimate; the controller keeps
  the declared figure instead of chasing noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional


@dataclass(frozen=True)
class EstimatorConfig:
    """Window and confidence knobs of one online estimator."""

    #: Sliding-window length in control ticks.
    window_ticks: int = 5
    #: Minimum processed items inside the window for confidence.
    min_items: int = 30
    #: Relative deviation from the declared figure below which the
    #: measurement is treated as "unchanged" (anti-thrashing: noise
    #: around the declared value never triggers a replan).
    change_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.window_ticks < 1:
            raise ValueError(f"window_ticks must be >= 1, got {self.window_ticks}")
        if self.min_items < 1:
            raise ValueError(f"min_items must be >= 1, got {self.min_items}")
        if self.change_threshold < 0.0:
            raise ValueError(
                f"change_threshold must be >= 0, got {self.change_threshold}")


@dataclass(frozen=True)
class TickSample:
    """Counter deltas of one vertex over one control period."""

    processed: int
    emitted: int
    busy_time: float


@dataclass(frozen=True)
class VertexEstimate:
    """The estimator's current belief about one operator."""

    vertex: str
    #: Measured mean service time over the window; ``None`` when the
    #: window processed nothing.
    service_time: Optional[float]
    #: Measured selectivity gain (emitted / processed) over the window.
    gain: Optional[float]
    #: Processed items backing the estimate.
    samples: int
    #: Whether the window clears the ``min_items`` confidence gate.
    confident: bool

    def service_changed(self, declared: float,
                        threshold: float) -> bool:
        """Did the measured service time drift beyond ``threshold``?"""
        if not self.confident or self.service_time is None or declared <= 0.0:
            return False
        return abs(self.service_time - declared) / declared > threshold

    def gain_changed(self, declared: float, threshold: float) -> bool:
        """Did the measured gain drift beyond ``threshold``?"""
        if not self.confident or self.gain is None:
            return False
        if declared <= 0.0:
            return self.gain > threshold
        return abs(self.gain - declared) / declared > threshold


class OnlineEstimator:
    """Sliding-window estimator over one vertex's counter deltas.

    Feed :meth:`observe` once per control tick with the tick's counter
    deltas (processed, emitted, busy seconds); read :meth:`estimate`
    for the windowed belief.  Pure counter arithmetic — two estimators
    fed the same tick sequence agree bit for bit.
    """

    def __init__(self, vertex: str,
                 config: Optional[EstimatorConfig] = None) -> None:
        self.vertex = vertex
        self.config = config or EstimatorConfig()
        self._window: Deque[TickSample] = deque(maxlen=self.config.window_ticks)
        #: Ticks observed over the estimator's lifetime.
        self.ticks = 0

    def observe(self, processed: int, emitted: int,
                busy_time: float) -> None:
        """Record one control period's counter deltas."""
        if processed < 0 or emitted < 0 or busy_time < 0.0:
            raise ValueError(
                f"{self.vertex}: counter deltas must be non-negative "
                f"(got processed={processed}, emitted={emitted}, "
                f"busy_time={busy_time})")
        self.ticks += 1
        self._window.append(TickSample(processed, emitted, busy_time))

    def estimate(self) -> VertexEstimate:
        """The windowed belief as of the last observed tick."""
        processed = sum(sample.processed for sample in self._window)
        emitted = sum(sample.emitted for sample in self._window)
        busy = sum(sample.busy_time for sample in self._window)
        service = busy / processed if processed > 0 else None
        gain = emitted / processed if processed > 0 else None
        return VertexEstimate(
            vertex=self.vertex,
            service_time=service,
            gain=gain,
            samples=processed,
            confident=processed >= self.config.min_items,
        )

    def reset(self) -> None:
        """Forget the window (after a reconfiguration changed the
        regime the window measured — old ticks would pollute the new
        steady state)."""
        self._window.clear()
