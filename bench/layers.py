"""Synchronous single-thread *layer cases*: the per-tuple cost of each
runtime layer, measured from outside.

Spans cannot see inside actor threads, and a service-rate figure taken
from inside a blocking, descheduled pipeline is corrupted by exactly
that blocking — so each case drives one layer's public class directly,
on the calling thread, with nothing to wait for.  Every figure is the
median of :data:`REPEATS` timings of ``calls`` calls, in µs per call
(per tuple for the batch cases).
"""

from __future__ import annotations

import multiprocessing
import pickle
import statistics
import threading
import time
from typing import Any, Callable, Dict, List

from repro.codegen.fuseloop import LoopOperator
from repro.core.fusion import plan_fusion
from repro.core.graph import Edge, KeyDistribution, OperatorSpec, Topology
from repro.core.partitioning import key_partitioning
from repro.operators.base import Record
from repro.operators.basic import FieldMap, Filter, Identity
from repro.operators.source_sink import CountingSink, GeneratorSource
from repro.runtime.actors import (BatchingTarget, EmitterActor, OperatorActor,
                                  Router, Target)
from repro.runtime.mailbox import Batch, BoundedMailbox
from repro.runtime.meta import MetaOperatorActor
from repro.runtime.procshard import ProcShardConfig, ProcShardSystem
from repro.runtime.system import ActorSystem, RuntimeConfig

from bench.ops import KeyedCounter
from bench.workloads import (COUNTING_SINK, GENERATOR, busy_spec,
                             chain_topology, fanout_plan)

REPEATS = 5


class _NullMailbox:
    """Accepts every message at once: isolates the sender's own cost."""

    def put(self, message: Any, timeout: float = -1.0, weight: int = 1,
            control: bool = False) -> bool:
        return True


def _records(count: int) -> List[Record]:
    source = GeneratorSource(seed=5)
    return [source.operator_function(i)[0] for i in range(count)]


def _median_us(case: Callable[[int], float], calls: int) -> float:
    """``case(calls)`` returns the seconds its timed loop took."""
    return statistics.median(case(calls) for _ in range(REPEATS)) / calls * 1e6


def _loop(call: Callable[[Any], Any], items: List[Any]) -> float:
    started = time.perf_counter()
    for item in items:
        call(item)
    return time.perf_counter() - started


def _mailbox_put_get(calls: int) -> float:
    box = BoundedMailbox(64)
    message = (Record(value=1.0), "source")
    started = time.perf_counter()
    for _ in range(calls):
        box.put(message)
        box.get()
    return time.perf_counter() - started


def _mailbox_handoff(calls: int) -> float:
    box = BoundedMailbox(64)
    message = (Record(value=1.0), "source")

    def consume() -> None:
        for _ in range(calls):
            box.get()

    consumer = threading.Thread(target=consume)
    started = time.perf_counter()
    consumer.start()
    for _ in range(calls):
        box.put(message)
    consumer.join()
    return time.perf_counter() - started


def _router(target: str = "next") -> Router:
    router = Router("case")
    router.add(1.0, Target(target, _NullMailbox()))
    return router


def _actor_handle(calls: int) -> float:
    # A fresh actor per timing, so every call pays the service-sample
    # reservoir append (it stops growing after 10 000 samples).
    actor = OperatorActor("ident", "ident", Identity(), _router(),
                          BoundedMailbox(1), threading.Event())
    return _loop(actor.handle,
                 [(record, "source") for record in _records(calls)])


def _route(calls: int) -> float:
    return _loop(_router().resolve, _records(calls))


def _emitter(keyed: bool) -> Callable[[int], float]:
    def case(calls: int) -> float:
        replicas = [Target("keyed", _NullMailbox()) for _ in range(2)]
        key_of = assignment = None
        if keyed:
            key_of = KeyedCounter().key_of
            assignment = key_partitioning(KeyDistribution.uniform(64),
                                          2)[2].assignment
        emitter = EmitterActor("keyed.emitter", "keyed", replicas,
                               BoundedMailbox(1), threading.Event(),
                               key_of=key_of, key_assignment=assignment)
        return _loop(emitter.handle,
                     [(record, "parse") for record in _records(calls)])
    return case


def _batch_deliver(size: int) -> Callable[[int], float]:
    def case(calls: int) -> float:
        target = BatchingTarget("next", BoundedMailbox(calls // size + 2),
                                size, flush_timeout=60.0)
        records = _records(calls)
        started = time.perf_counter()
        for record in records:
            target.deliver(record, "source")
        return time.perf_counter() - started
    return case


def _map_filter_plan():
    """The pure map -> filter chain both fusion back-ends execute."""
    specs = [OperatorSpec("source", 1e-4),
             OperatorSpec("map", 1e-4),
             OperatorSpec("filt", 1e-4, output_selectivity=0.5),
             OperatorSpec("sink", 1e-4)]
    names = [spec.name for spec in specs]
    topology = Topology(specs, [Edge(a, b) for a, b in zip(names, names[1:])],
                        name="case-map-filter")
    return plan_fusion(topology, ["map", "filt"])


def _members() -> Dict[str, Any]:
    return {"map": FieldMap(field="value"), "filt": Filter(threshold=2.0)}


def _meta_dispatch(calls: int) -> float:
    plan = _map_filter_plan()
    # The meta-operator pins each exit to the plan's external target.
    actor = MetaOperatorActor(plan.fused_name, plan, _members(),
                              _router("sink"), BoundedMailbox(1),
                              threading.Event())
    return _loop(actor.handle,
                 [(record, "source") for record in _records(calls)])


def _loop_compiled(calls: int) -> float:
    fused = LoopOperator(_map_filter_plan(), _members())
    return _loop(fused.operator_function, _records(calls))


def _loop_compile_seconds() -> float:
    plan = _map_filter_plan()
    timings = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        LoopOperator(plan, _members())
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def _operator(make: Callable[[], Any]) -> Callable[[int], float]:
    return lambda calls: _loop(make().operator_function, _records(calls))


def _generator(calls: int) -> float:
    return _loop(GeneratorSource(seed=5).operator_function,
                 list(range(calls)))


def _snapshot(calls: int) -> float:
    """Mean cost of one actor's epoch snapshot on the checkpointed chain
    (source, identity, counting sink)."""
    source = GeneratorSource(seed=5)
    source_router = _router()
    actors = [OperatorActor(name, name, operator, _router(),
                            BoundedMailbox(1), threading.Event())
              for name, operator in (("ident", Identity()),
                                     ("sink", CountingSink()))]
    started = time.perf_counter()
    for sequence in range(calls // 3):
        {"operator": source.snapshot_state(),
         "router": source_router.state(), "sequence": sequence}
        for actor in actors:
            actor.checkpoint_state()
    return time.perf_counter() - started


def _channel_message():
    """What one cross-shard channel write carries at the default
    ``channel_batch_size`` of 32."""
    return ("m", (Batch(tuple(_records(32))), "source"))


def _pickle_batch(calls: int) -> float:
    message = _channel_message()
    started = time.perf_counter()
    for _ in range(calls):
        pickle.loads(pickle.dumps(message))
    return time.perf_counter() - started


def _pipe_batch(calls: int) -> float:
    message = _channel_message()
    receiver, sender = multiprocessing.Pipe(duplex=False)
    try:
        started = time.perf_counter()
        for _ in range(calls):
            sender.send(message)
            receiver.recv()
        return time.perf_counter() - started
    finally:
        sender.close()
        receiver.close()


def _lifecycles(repeats: int) -> Dict[str, float]:
    """Build / start / stop of an idle system on each backend: the
    eleven-actor fan-out plan on threads, the busy chain on two shard
    processes.  ``run_to_exhaustion()`` times start and finish as one;
    the two public steps taken separately tell them apart."""
    timings: Dict[str, List[float]] = {}

    def timed(name: str, call: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        result = call()
        timings.setdefault(name, []).append(time.perf_counter() - started)
        return result

    topology, plan, factories = fanout_plan(GENERATOR, {"seed": 5})
    busy = chain_topology(GENERATOR, {"seed": 5}, COUNTING_SINK,
                          busy_spec(20e-6))
    for _ in range(repeats):
        system = timed("system.build_s", lambda: ActorSystem.build(
            topology, factories, fusion_plans=[plan],
            config=RuntimeConfig(max_items=0, fusion_mode="auto")))
        timed("system.start_s", system.start)
        timed("system.stop_s", system.stop)
        shards = timed("procshard.build_s", lambda: ProcShardSystem.build(
            busy, config=ProcShardConfig(shards=2, max_items=0)))
        timed("procshard.start_s", shards.start)
        timed("procshard.finish_s", lambda: shards.finish(stop=True))
    return {name: statistics.median(values)
            for name, values in timings.items()}


def run_layer_cases(quick: bool = False) -> Dict[str, float]:
    """Every layer case -> ``{per-layer metric name: value}``."""
    scale = 10 if quick else 1
    calls = 5_000 // scale
    batches = 200 // scale
    out = {
        "mailbox.put_get_us": _median_us(_mailbox_put_get, calls),
        "mailbox.handoff_us": _median_us(_mailbox_handoff, calls),
        "actors.handle_us": _median_us(_actor_handle, calls),
        "actors.route_us": _median_us(_route, calls),
        "actors.emitter_rr_us": _median_us(_emitter(False), calls),
        "actors.emitter_keyed_us": _median_us(_emitter(True), calls),
        "meta.dispatch_us": _median_us(_meta_dispatch, calls),
        "fuseloop.loop_us": _median_us(_loop_compiled, calls),
        "codegen.loop_compile_s": _loop_compile_seconds(),
        "operators.generator_us": _median_us(_generator, calls),
        "operators.identity_us": _median_us(_operator(Identity), calls),
        "operators.counting_us": _median_us(_operator(CountingSink), calls),
        "operators.fieldmap_us": _median_us(
            _operator(lambda: FieldMap(field="value")), calls),
        "operators.keyed_us": _median_us(_operator(KeyedCounter), calls),
        "checkpoint.snapshot_us": _median_us(_snapshot, calls),
        "procshard.pickle_us_b32": _median_us(_pickle_batch, batches),
        "procshard.pipe_us_b32": _median_us(_pipe_batch, batches),
        "procshard.bytes_per_tuple": len(pickle.dumps(_channel_message()))
        / 32.0,
    }
    for size in (1, 8, 64):
        out[f"actors.batch_deliver_us_b{size}"] = _median_us(
            _batch_deliver(size), calls)
    out.update(_lifecycles(1 if quick else 3))
    # What the layer cases say one unbatched hop costs on top of the
    # operator: the measured counterpart of SimulationConfig.hop_overhead.
    out["model.hop_overhead_us"] = (
        out["mailbox.handoff_us"] + out["actors.handle_us"]
        + out["actors.route_us"] - out["operators.identity_us"])
    return out
