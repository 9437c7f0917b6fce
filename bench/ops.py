"""The benchmark's own load generator and probes, as plain operators.

They live in an importable module (``bench.ops.<Class>`` dotted paths in
``OperatorSpec.operator_class``) so forked shard workers can instantiate
them, hold only picklable constructor state (rule SS301) and override
both snapshot hooks where the default deep copy would be wrong or slow
(rule SS302).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, NamedTuple, Optional

from repro.operators.base import KeyedOperator, Record
from repro.operators.source_sink import CountingSink, GeneratorSource


class ScheduledSource(GeneratorSource):
    """Open-loop source: tuple *k* is due at ``t0 + k / rate``.

    The schedule never slows when the system does: a tuple emitted late
    (the source was blocked or descheduled) keeps its original due time,
    so the wait a stall imposes on later tuples is counted in their
    latency.  Each record carries ``due`` and ``sent`` (both
    ``time.perf_counter()``, which is one system-wide clock on Linux and
    therefore comparable across shard processes).
    """

    #: Lead time before the first tuple, letting every actor thread and
    #: shard process reach its mailbox loop.
    LEAD_SECONDS = 0.05

    def __init__(self, rate: float, seed: int = 1) -> None:
        super().__init__(seed=seed)
        if rate <= 0.0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.t0 = 0.0

    def on_start(self) -> None:
        self.t0 = time.perf_counter() + self.LEAD_SECONDS

    def operator_function(self, item: Any) -> List[Record]:
        due = self.t0 + int(item) / self.rate
        delay = due - time.perf_counter()
        if delay > 0.0:
            time.sleep(delay)
        record = super().operator_function(item)[0]
        record["due"] = due
        record["sent"] = time.perf_counter()
        return [record]


class KeyedCounter(KeyedOperator):
    """Pass-through partitioned-stateful operator: a running count per key.

    Every output carries ``seen``, the number of tuples with its key that
    reached this replica so far — so the sink can check per-key state
    without reaching into replica threads or processes.
    """

    def __init__(self, key_field: str = "key") -> None:
        super().__init__(key_field)
        self.counts: Dict[str, int] = {}

    def operator_function(self, item: Record) -> List[Record]:
        key = item[self.key_field]
        seen = self.counts.get(key, 0) + 1
        self.counts[key] = seen
        return [item.copy_with(seen=seen)]


class Delivery(NamedTuple):
    """One tuple as :class:`ProbeSink` saw it; fields a workload does not
    produce are ``None``, times are ``time.perf_counter()`` seconds."""

    sequence: Optional[int]
    value: Optional[float]
    key: Optional[str]
    seen: Optional[int]
    due: Optional[float]
    sent: Optional[float]
    arrived: float


class ProbeSink(CountingSink):
    """Sink recording what arrived and when, one :class:`Delivery` each.

    The process backend returns ``items`` and ``count`` to the driver,
    which is how latencies leave a shard worker.
    """

    def __init__(self) -> None:
        super().__init__()
        self.items: List[Delivery] = []

    def operator_function(self, item: Any) -> List[Any]:
        arrived = time.perf_counter()
        self.count += 1
        get = item.get
        self.items.append(Delivery(get("sequence"), get("value"), get("key"),
                                   get("seen"), get("due"), get("sent"),
                                   arrived))
        return []

    def snapshot_state(self) -> Any:
        # The default deep copy would walk every recorded tuple at every
        # barrier; the deliveries are append-only, so their number is the
        # whole state.
        return {"count": self.count}

    def restore_state(self, snapshot: Any) -> None:
        self.count = int(snapshot["count"])
        del self.items[self.count:]
