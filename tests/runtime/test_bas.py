"""BAS on a running system: how many tuples a saturated link holds.

The paper's runtime contract is that a sender blocks while the
destination mailbox is full (Section 5.1); the latency and memory models
(``core/latency.py``, ``core/memory.py``) assume it.  Each test freezes
a downstream operator on an event, lets everything upstream of it
saturate, and counts from the *actors'* counters — not the mailbox's —
the tuples that left a sender but were not processed by its receiver.
A mailbox that admits a message past ``capacity`` makes every count
larger, whatever it reports about its own occupancy.

With mailbox capacity ``C`` and batch size ``b`` (the sender's every
batch is full: each source call emits ``b`` tuples, each operator one
per input):

* a plain hop holds ``C + 1`` tuples (``C`` queued, one in the frozen
  receiver's hand); the sender's blocked put is not counted as sent;
* a batched link holds ``(C + 1) · b`` tuples, and the sender's blocked
  flush holds ``b`` more that it already sent: ``(C + 2) · b``.
"""

import threading
import time

import pytest

from repro.core.graph import Edge, OperatorSpec, StateKind, Topology
from repro.operators.base import Operator
from repro.operators.basic import Identity
from repro.operators.source_sink import CountingSink
from repro.runtime.system import ActorSystem, RuntimeConfig

CAPACITY = 4
BATCH = 4
#: Longest a test waits for a link to saturate or a job to drain.
DEADLINE = 10.0


class Burst(Operator):
    """A source emitting ``size`` tuples per call, so batches are full."""

    def __init__(self, size):
        self.size = size

    def operator_function(self, item):
        return [item * self.size + offset for offset in range(self.size)]


class Frozen(Operator):
    """Passes tuples on once ``gate`` is set; until then its first tuple
    holds the actor inside ``operator_function``."""

    def __init__(self, gate, state=StateKind.STATELESS):
        self.gate = gate
        self.state = state

    def operator_function(self, item):
        assert self.gate.wait(DEADLINE), "the gate was never opened"
        return [item]


def _topology():
    return Topology(
        [OperatorSpec("source", 1e-4),
         OperatorSpec("middle", 1e-4),
         OperatorSpec("sink", 1e-4, state=StateKind.STATEFUL,
                      output_selectivity=0.0)],
        [Edge("source", "middle"), Edge("middle", "sink")],
        name="bas")


def _settled(count, blocked):
    """``count()`` once the saturated system stopped moving: ``blocked``
    actor waits on a full receiver and the count held for 50 ms."""
    deadline = time.monotonic() + DEADLINE
    previous = None
    while time.monotonic() < deadline:
        current = count()
        if current == previous and blocked.blocked_on is not None:
            return current
        previous = current
        time.sleep(0.05)
    pytest.fail(f"{blocked.actor_name} never blocked; count {previous}")


class _Frozen:
    """Build and start a system whose ``frozen`` vertex waits on a gate;
    on exit open the gate and require a complete, lossless drain."""

    def __init__(self, frozen, batch_size, burst, elastic=False):
        self.gate = threading.Event()
        factories = {
            "source": lambda: Burst(burst),
            "middle": lambda: (Frozen(self.gate) if frozen == "middle"
                               else Identity()),
            "sink": lambda: (Frozen(self.gate, StateKind.STATEFUL)
                             if frozen == "sink" else CountingSink()),
        }
        self.items = 60 * burst
        self.system = ActorSystem.build(
            _topology(), factories, config=RuntimeConfig(
                mailbox_capacity=CAPACITY, put_timeout=None,
                max_items=60, batch_size=batch_size,
                batch_flush_timeout=DEADLINE * 10, elastic=elastic,
                watchdog=False, unsafe=True))

    def __enter__(self):
        self.system.start()
        return {actor.actor_name: actor for actor in self.system.actors}

    def __exit__(self, *exc):
        self.gate.set()
        try:
            outcome = self.system.drain(DEADLINE)
        finally:
            leaked = self.system.stop()
        if exc[0] is None:
            assert outcome == "completed", self.system.failure_reason
            assert leaked == []
            snapshot = self.system.snapshot()
            assert snapshot["sink"].processed == self.items
            assert sum(s.dropped for s in snapshot.values()) == 0


def _emitted(actor):
    return actor.counters.emitted


def _sent(actor):
    """Tuples an emitter or collector sent on.  It counts a batch as
    emitted once the whole batch is delivered, so a batch in its hand
    (received, not yet processed) sits in its blocked flush."""
    counters = actor.counters
    return counters.emitted + (counters.received - counters.processed)


def _held(sender, receiver, sent=_emitted):
    """Tuples ``sender`` sent that ``receiver`` has not processed, once
    the link saturated."""
    return _settled(lambda: sent(sender) - receiver.counters.processed,
                    sender)


class TestSaturatedLinks:
    def test_plain_hop_holds_capacity_plus_one(self):
        with _Frozen("middle", batch_size=1, burst=1) as actors:
            held = _held(actors["source"], actors["middle"])
        assert held == CAPACITY + 1

    def test_batched_route_link(self):
        with _Frozen("middle", batch_size=BATCH, burst=BATCH) as actors:
            held = _held(actors["source"], actors["middle"])
        assert held == (CAPACITY + 2) * BATCH

    def test_batched_scatter_link(self):
        # elastic: ``middle`` is an emitter + one replica + collector.
        with _Frozen("middle", batch_size=BATCH, burst=BATCH,
                     elastic=True) as actors:
            held = _held(actors["middle.emitter"], actors["middle#0"],
                         sent=_sent)
        assert held == (CAPACITY + 2) * BATCH

    def test_batched_gather_link(self):
        # The frozen sink backs the collector up, which backs up the
        # replica's gather link.
        with _Frozen("sink", batch_size=BATCH, burst=BATCH,
                     elastic=True) as actors:
            held = _held(actors["middle#0"], actors["middle.collector"])
        assert held == (CAPACITY + 2) * BATCH
