"""Synthetic service-time padding for runtime experiments.

The paper's evaluation runs on a 24-core machine where every actor owns
a dedicated hardware thread.  Under CPython's GIL, CPU-burning actors
would serialize on a single core and the measured rates would no longer
match the dedicated-core queueing model.  :class:`PaddedOperator`
sidesteps this by realizing the configured service time as a sleep
(which releases the GIL) plus the inner operator's real work: each actor
behaves exactly as if it ran on its own core, preserving the queueing
and backpressure behaviour the experiments measure.  DESIGN.md documents
this substitution.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional

from repro.operators.base import Operator


class GainOperator(Operator):
    """Realize a configured gain (selectivity ratio) deterministically.

    Emits ``gain`` outputs per input via a credit accumulator: each
    input adds ``gain`` credits and one copy of the item departs per
    whole credit.  Over any window of N inputs the realized selectivity
    is within one item of ``gain * N`` — no sampling noise, which is
    what makes short wall-clock conformance runs comparable with the
    analytical model at tight tolerances.
    """

    def __init__(self, gain: float) -> None:
        if gain < 0.0:
            raise ValueError(f"gain must be non-negative, got {gain}")
        self.output_selectivity = gain
        self._credit = 0.0

    def operator_function(self, item: Any) -> List[Any]:
        self._credit += self.gain
        count = int(self._credit)
        self._credit -= count
        if count <= 0:
            return []
        if count == 1:
            return [item]
        return [item] * count

    def describe(self) -> str:
        return f"GainOperator(gain={self.gain:g})"


class BusyOperator(Operator):
    """Burn CPU for ``busy_time`` seconds per item, holding the GIL.

    The adversarial counterpart of :class:`PaddedOperator`: the service
    time is realized as a spin loop instead of a sleep, so concurrent
    threaded replicas serialize on one core while process-sharded
    replicas scale with the hardware.  This is the workload the
    ``shards_cpu`` / ``shards_ipc`` benchmark workloads use to measure
    what the multi-process backend actually buys.
    """

    def __init__(self, busy_time: float) -> None:
        if busy_time <= 0.0:
            raise ValueError(f"busy_time must be positive, got {busy_time}")
        self.busy_time = busy_time

    def operator_function(self, item: Any) -> List[Any]:
        deadline = time.perf_counter() + self.busy_time
        while time.perf_counter() < deadline:
            pass
        return [item]

    def describe(self) -> str:
        return f"BusyOperator(busy_time={self.busy_time:g}s)"


def _padded_call(operator: Any, item: Any, service_time: float) -> List[Any]:
    """One invocation of a padded ``operator``: its inner operator's work,
    then a sleep up to ``service_time``.

    ``time.sleep`` overshoots by scheduler latency, which would make
    every padded operator slower than declared.  The sleep is therefore
    shortened by what the previous one overslept (carried in
    ``operator._overslept``, capped at one service time), so the mean
    service time stays on target; a first call lasts at least
    ``service_time``.
    """
    started = time.perf_counter()
    outputs = operator.inner.operator_function(item)
    deadline = started + service_time - operator._overslept
    remaining = deadline - time.perf_counter()
    operator._overslept = 0.0
    if remaining > 0.0:
        time.sleep(remaining)
        operator._overslept = min(time.perf_counter() - deadline,
                                  service_time)
    return outputs


class ServiceTimeControl:
    """Mutable, shared service-time knob read once per invocation.

    The adaptive conformance scenarios shift an operator's service time
    *mid-run* (the workload phase change the controller must detect).
    One control instance is shared between the test driver and every
    replica/rebuilt instance of the operator, so a live migration or
    supervision restart keeps seeing the current value.
    """

    __slots__ = ("service_time",)

    def __init__(self, service_time: float) -> None:
        if service_time <= 0.0:
            raise ValueError(f"service_time must be positive, got {service_time}")
        self.service_time = service_time

    def set(self, service_time: float) -> None:
        if service_time <= 0.0:
            raise ValueError(f"service_time must be positive, got {service_time}")
        self.service_time = service_time

    def scale(self, factor: float) -> None:
        self.set(self.service_time * factor)


class AdjustablePaddedOperator(Operator):
    """A :class:`PaddedOperator` whose padding can change mid-run.

    Reads the shared :class:`ServiceTimeControl` on every invocation;
    the control is deliberately excluded from state snapshots so a
    migrated or restarted instance re-attaches to the *live* knob
    instead of a deep-copied stale one.
    """

    def __init__(self, inner: Operator, control: ServiceTimeControl) -> None:
        self.inner = inner
        self.control = control
        self.state = inner.state
        self.input_selectivity = inner.input_selectivity
        self.output_selectivity = inner.output_selectivity
        self._overslept = 0.0

    def operator_function(self, item: Any) -> List[Any]:
        return _padded_call(self, item, self.control.service_time)

    def snapshot_state(self) -> dict:
        return {"inner": self.inner.snapshot_state()}

    def restore_state(self, snapshot: dict) -> None:
        self.inner.restore_state(snapshot["inner"])

    def on_start(self) -> None:
        self.inner.on_start()

    def on_stop(self) -> None:
        self.inner.on_stop()

    def key_of(self, item: Any) -> Optional[str]:
        return self.inner.key_of(item)

    def describe(self) -> str:
        return (
            f"AdjustablePaddedOperator({self.inner.describe()}, "
            f"service_time={self.control.service_time:g}s)"
        )


class PaddedOperator(Operator):
    """Wrap an operator so each invocation lasts ``service_time`` seconds.

    The inner operator's real compute time counts toward the target
    service time; the remainder is slept.  State kind and selectivities
    mirror the inner operator so fission and fusion decisions carry over.
    """

    def __init__(self, inner: Operator, service_time: float) -> None:
        if service_time <= 0.0:
            raise ValueError(f"service_time must be positive, got {service_time}")
        self.inner = inner
        self.service_time = service_time
        self.state = inner.state
        self.input_selectivity = inner.input_selectivity
        self.output_selectivity = inner.output_selectivity
        self._overslept = 0.0

    def operator_function(self, item: Any) -> List[Any]:
        return _padded_call(self, item, self.service_time)

    def on_start(self) -> None:
        self.inner.on_start()

    def on_stop(self) -> None:
        self.inner.on_stop()

    def key_of(self, item: Any) -> Optional[str]:
        return self.inner.key_of(item)

    def describe(self) -> str:
        return (
            f"PaddedOperator({self.inner.describe()}, "
            f"service_time={self.service_time:g}s)"
        )
