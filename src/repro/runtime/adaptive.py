"""Online re-optimization: close the loop between profiling and solving.

The paper's workflow is static — profile once, restructure offline,
redeploy.  This module runs the same machinery *against a live system*:
a controller thread samples per-operator counter deltas every control
period, feeds confident drifts through the incremental solver
(:func:`repro.core.plandiff.replan`, built on ``analyze_edit``'s
memoized core), and applies the minimal replica resizes to the running
:class:`~repro.runtime.system.ActorSystem` without stopping the world
(scale-up spawns replicas behind the emitter; scale-down drains them
in FIFO order — see ``ActorSystem.scale_vertex``).

Decision discipline (what keeps the loop from thrashing):

* estimates gate on ``min_items`` per window — noise never drives a
  replan (:mod:`repro.profiling.online`);
* a measured parameter is adopted only when it drifted more than
  ``change_threshold`` from the deployed plan's figure;
* a plan is applied only when the predicted throughput gain clears
  ``gain_margin`` (scale-up) or costs less than ``shrink_slack``
  while freeing replicas (scale-down);
* after firing, the controller holds off for ``cooldown_ticks`` and
  resets its windows so the old regime's samples don't pollute the
  new steady state.

Every decision — fired or not — lands in the controller's decision
log, a pure function of the sampled counter sequence: replaying the
same tick deltas replays the same decisions bit for bit (the adaptive
conformance suite relies on this).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.graph import Topology
from repro.core.plandiff import (
    PlanDiff,
    ReplicaChange,
    VertexMeasurement,
    replan,
)
from repro.profiling.online import (
    EstimatorConfig,
    OnlineEstimator,
    VertexEstimate,
)
from repro.runtime.meta import MetaOperatorActor
from repro.runtime.actors import OperatorActor
from repro.runtime.system import ActorSystem


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive control loop."""

    #: Seconds between control ticks (the sampling period).
    control_period: float = 0.25
    #: Windowing and confidence knobs of the online estimators.
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    #: Predicted relative throughput gain required to scale up.
    gain_margin: float = 0.10
    #: Predicted relative throughput loss tolerated when freeing
    #: replicas (over-provisioning cleanup).
    shrink_slack: float = 0.05
    #: Ticks to hold off after a reconfiguration (the new regime needs
    #: a full window of fresh samples before it can be judged).
    cooldown_ticks: int = 3
    #: Replica budget handed to the re-solve (``None`` = unbounded).
    max_replicas: Optional[int] = None
    #: Escape hatch for the SS314 deployment-safety gate: ``True``
    #: allows a zero-tick cooldown (replans faster than one control
    #: period can measure).
    unsafe: bool = False

    def __post_init__(self) -> None:
        if self.control_period <= 0.0:
            raise ValueError(
                f"control_period must be positive, got {self.control_period}")
        if self.cooldown_ticks < 0:
            raise ValueError(
                f"cooldown_ticks must be >= 0, got {self.cooldown_ticks}")
        if self.cooldown_ticks < 1 and not self.unsafe:
            raise ValueError(
                "cooldown_ticks < 1 re-plans faster than one control "
                "period can measure (rule SS314); pass unsafe=True to "
                "override")


@dataclass(frozen=True)
class ControllerDecision:
    """One control tick's verdict, fired or not."""

    tick: int
    fired: bool
    reason: str
    actions: Tuple[ReplicaChange, ...] = ()
    #: Analytical throughput of the deployment under measured rates at
    #: decision time (``None`` when no replan was attempted).
    predicted_current: Optional[float] = None
    #: Analytical throughput of the plan the controller moved to.
    predicted_target: Optional[float] = None
    #: Confident estimates that drove the decision.
    estimates: Tuple[VertexEstimate, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for decision-log artifacts."""
        return {
            "tick": self.tick,
            "fired": self.fired,
            "reason": self.reason,
            "actions": [
                {"vertex": action.vertex, "before": action.before,
                 "after": action.after}
                for action in self.actions
            ],
            "predicted_current": self.predicted_current,
            "predicted_target": self.predicted_target,
            "estimates": [
                {"vertex": estimate.vertex,
                 "service_time": estimate.service_time,
                 "gain": estimate.gain,
                 "samples": estimate.samples,
                 "confident": estimate.confident}
                for estimate in self.estimates
            ],
        }


def plan_reconfiguration(
    topology: Topology,
    current_replications: Mapping[str, int],
    estimates: Mapping[str, VertexEstimate],
    offered_rate: Optional[float],
    scalable: Sequence[str],
    config: AdaptiveConfig,
) -> Tuple[Optional[PlanDiff], str]:
    """Decide one tick, purely: ``(diff, reason)``.

    ``diff`` is ``None`` when the controller should not act; ``reason``
    always explains why.  A deterministic function of its arguments —
    no clocks, no ambient state — so decision sequences replay exactly.
    """
    threshold = config.estimator.change_threshold
    measurements: Dict[str, VertexMeasurement] = {}
    for spec in topology.operators:
        estimate = estimates.get(spec.name)
        if estimate is None or not estimate.confident:
            continue
        service = None
        gain = None
        if estimate.service_changed(spec.service_time, threshold):
            service = estimate.service_time
        declared_gain = spec.gain
        if estimate.gain_changed(declared_gain, threshold):
            gain = estimate.gain
        if service is not None or gain is not None:
            measurements[spec.name] = VertexMeasurement(
                vertex=spec.name,
                service_time=service,
                gain=gain,
                samples=estimate.samples,
            )
    if not measurements:
        return None, "no confident parameter drift"
    diff = replan(
        topology,
        current_replications,
        measurements,
        source_rate=offered_rate,
        max_replicas=config.max_replicas,
        scalable=scalable,
    )
    if not diff.actions:
        return None, (
            f"drift in {sorted(measurements)} but replan matches the "
            f"deployed replica counts")
    if diff.replica_delta > 0:
        if diff.predicted_gain < config.gain_margin:
            return None, (
                f"predicted gain {diff.predicted_gain:+.1%} below the "
                f"{config.gain_margin:.1%} margin")
    else:
        if diff.predicted_gain < -config.shrink_slack:
            return None, (
                f"shrinking would cost {-diff.predicted_gain:.1%} "
                f"throughput (> {config.shrink_slack:.1%} slack)")
    vertices = ", ".join(
        f"{action.vertex}:{action.before}->{action.after}"
        for action in diff.actions)
    return diff, f"drift in {sorted(measurements)}; resize {vertices}"


class AdaptiveController(threading.Thread):
    """The control loop: sample → estimate → replan → reconfigure.

    Runs as a daemon thread next to a started :class:`ActorSystem`
    built with ``RuntimeConfig(elastic=True)``.  ``tick()`` is public:
    the conformance tests drive it manually (no thread) so the whole
    decision sequence is a deterministic replay.
    """

    def __init__(self, system: ActorSystem, topology: Topology,
                 config: Optional[AdaptiveConfig] = None) -> None:
        super().__init__(name="adaptive-controller", daemon=True)
        self.system = system
        self.topology = topology
        self.config = config or AdaptiveConfig()
        self.scalable = tuple(
            name for name in system.scalable_vertices()
            if name != topology.source and name in topology)
        self.estimators: Dict[str, OnlineEstimator] = {
            spec.name: OnlineEstimator(spec.name, self.config.estimator)
            for spec in topology.operators
            if spec.name != topology.source
        }
        #: Full decision log, one entry per tick (artifact material).
        self.decisions: List[ControllerDecision] = []
        #: Reconfigurations this controller applied.
        self.reconfigurations = 0
        self._cooldown = 0
        self._last_totals: Dict[str, Tuple[int, int, float]] = {}
        self._stop_event = threading.Event()
        self._tick = 0

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _vertex_totals(self) -> Dict[str, Tuple[int, int, float]]:
        """Cumulative (processed, emitted, busy) per measured vertex.

        Sums operator-executing actors only (replicas, meta, loop);
        emitters, collectors and the source are plumbing, not service.
        """
        totals: Dict[str, List[float]] = {}
        for actor in list(self.system.actors):
            if not isinstance(actor, (OperatorActor, MetaOperatorActor)):
                continue
            if actor.vertex not in self.estimators:
                continue
            counters = actor.counters
            bucket = totals.setdefault(actor.vertex, [0, 0, 0.0])
            bucket[0] += counters.processed
            bucket[1] += counters.emitted
            bucket[2] += counters.busy_time
        return {vertex: (int(processed), int(emitted), busy)
                for vertex, (processed, emitted, busy) in totals.items()}

    def observe(self) -> None:
        """Sample one tick's counter deltas into the estimators."""
        totals = self._vertex_totals()
        for vertex, (processed, emitted, busy) in totals.items():
            last = self._last_totals.get(vertex, (0, 0, 0.0))
            self.estimators[vertex].observe(
                max(0, processed - last[0]),
                max(0, emitted - last[1]),
                max(0.0, busy - last[2]),
            )
        self._last_totals = totals

    # ------------------------------------------------------------------
    # deciding and acting
    # ------------------------------------------------------------------
    def offered_rate(self) -> Optional[float]:
        """The demand at the boundary: the source's configured rate.

        Deliberately *not* the measured source departure rate — under a
        saturated bottleneck the measured rate collapses to the
        bottleneck's capacity and would hide exactly the overload the
        controller must react to.
        """
        source = self.system.source_actor
        return None if source is None else source.rate

    def tick(self) -> ControllerDecision:
        """One full control period: sample, decide, maybe act."""
        self._tick += 1
        self.observe()
        if self._cooldown > 0:
            self._cooldown -= 1
            decision = ControllerDecision(
                tick=self._tick, fired=False,
                reason=f"cooldown ({self._cooldown} ticks left)")
            self.decisions.append(decision)
            return decision
        estimates = {vertex: estimator.estimate()
                     for vertex, estimator in self.estimators.items()}
        current = {name: self.system.replication_of(name)
                   for name in self.topology.names}
        diff, reason = plan_reconfiguration(
            self.topology, current, estimates, self.offered_rate(),
            self.scalable, self.config)
        if diff is None:
            decision = ControllerDecision(
                tick=self._tick, fired=False, reason=reason,
                estimates=tuple(estimate for estimate in estimates.values()
                                if estimate.confident))
            self.decisions.append(decision)
            return decision
        applied: List[ReplicaChange] = []
        failures: List[str] = []
        for action in diff.actions:
            try:
                self.system.scale_vertex(action.vertex, action.after)
                applied.append(action)
            except Exception as error:  # noqa: BLE001 - log, keep looping
                failures.append(
                    f"{action.vertex}: {type(error).__name__}: {error}")
        if applied:
            self.reconfigurations += len(applied)
            self._cooldown = self.config.cooldown_ticks
            for estimator in self.estimators.values():
                estimator.reset()
            self._last_totals = self._vertex_totals()
        if failures:
            reason = f"{reason}; failed: {'; '.join(failures)}"
        decision = ControllerDecision(
            tick=self._tick,
            fired=bool(applied),
            reason=reason,
            actions=tuple(applied),
            predicted_current=diff.current_analysis.throughput,
            predicted_target=diff.target_analysis.throughput,
            estimates=tuple(estimate for estimate in estimates.values()
                            if estimate.confident),
        )
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:  # pragma: no cover - thread body, exercised E2E
        while not self._stop_event.wait(self.config.control_period):
            if self.system.stop_event.is_set():
                break
            try:
                self.tick()
            except Exception as error:  # noqa: BLE001 - keep looping
                self.decisions.append(ControllerDecision(
                    tick=self._tick, fired=False,
                    reason=f"tick failed: {type(error).__name__}: {error}"))

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop and join the thread (no-op if never started)."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def fired_decisions(self) -> List[ControllerDecision]:
        return [decision for decision in self.decisions if decision.fired]

    def decision_log(self) -> List[Dict[str, Any]]:
        """JSON-ready decision log (CI uploads this as an artifact)."""
        return [decision.as_dict() for decision in self.decisions]


def wait_for_adaptation(controller: AdaptiveController,
                        timeout: float = 10.0,
                        poll: float = 0.02) -> bool:
    """Block until the controller fired at least once (or timeout)."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if controller.fired_decisions:
            return True
        time.sleep(poll)
    return False
