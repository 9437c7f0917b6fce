"""Integration tests: full actor systems on threads.

These run wall-clock time, so durations are kept short; rate assertions
use generous tolerances to stay robust on loaded CI machines.
"""

import threading

import pytest

from repro.core.fission import eliminate_bottlenecks
from repro.core.fusion import apply_fusion
from repro.core.graph import (
    CheckpointConfig,
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
)
from repro.core.steady_state import analyze
from repro.faults.plan import CrashFault, FaultPlan
from repro.operators.base import Operator, Record
from repro.operators.basic import Filter, Identity
from repro.operators.source_sink import CollectingSink, CountingSink, GeneratorSource
from repro.runtime.supervision import (
    Directive,
    SupervisionPolicy,
    SupervisorStrategy,
)
from repro.runtime.synthetic import PaddedOperator
from repro.runtime.system import ActorSystem, RuntimeConfig, run_topology
from tests.conftest import make_pipeline


def pipeline_topology(work_ms):
    return Topology(
        [OperatorSpec("src", 2e-3),
         OperatorSpec("work", work_ms * 1e-3),
         OperatorSpec("sink", 0.1e-3, output_selectivity=0.0)],
        [Edge("src", "work"), Edge("work", "sink")],
        name="rt-pipeline",
    )


def pipeline_factories(work_ms, sink=None):
    return {
        "src": lambda: GeneratorSource(seed=7),
        "work": lambda: PaddedOperator(Identity(), work_ms * 1e-3),
        "sink": (lambda: sink) if sink is not None else CountingSink,
    }


class TestPipeline:
    def test_unloaded_pipeline_matches_source_rate(self):
        topology = pipeline_topology(1.0)
        result = run_topology(
            topology, pipeline_factories(1.0), duration=1.5,
            config=RuntimeConfig(source_rate=300.0),
        )
        assert result.throughput == pytest.approx(300.0, rel=0.05)

    def test_backpressure_throttles_source(self):
        topology = pipeline_topology(8.0)
        predicted = analyze(topology, source_rate=500.0)
        result = run_topology(
            topology, pipeline_factories(8.0), duration=2.0,
            config=RuntimeConfig(source_rate=500.0, mailbox_capacity=16),
        )
        assert predicted.throughput == pytest.approx(125.0)
        assert result.throughput_error(predicted) < 0.12

    def test_sink_receives_records(self):
        sink = CollectingSink()
        topology = pipeline_topology(1.0)
        run_topology(
            topology, pipeline_factories(1.0, sink=sink), duration=1.0,
            config=RuntimeConfig(source_rate=200.0),
        )
        assert sink.count > 50
        assert isinstance(sink.items[0], Record)

    def test_max_items_bounds_generation(self):
        sink = CountingSink()
        topology = pipeline_topology(1.0)
        run_topology(
            topology, pipeline_factories(1.0, sink=sink), duration=1.0,
            config=RuntimeConfig(source_rate=1000.0, max_items=100),
        )
        assert sink.count <= 100


class TestFission:
    def test_replicated_operator_reaches_source_rate(self):
        # work at 8ms caps a 4ms source at 125/s; 2 replicas fix it.
        topology = pipeline_topology(8.0)
        optimized = eliminate_bottlenecks(topology,
                                          source_rate=250.0).optimized
        assert optimized.operator("work").replication == 2
        result = run_topology(
            optimized, pipeline_factories(8.0), duration=2.0,
            config=RuntimeConfig(source_rate=250.0),
        )
        assert result.throughput == pytest.approx(250.0, rel=0.08)

    def test_partitioned_replication_with_keyed_routing(self):
        keys = KeyDistribution.uniform(64)

        class KeyedIdentity(Identity):
            state = StateKind.PARTITIONED

            def key_of(self, item):
                return item.get("key")

        topology = Topology(
            [OperatorSpec("src", 4e-3),
             OperatorSpec("keyed", 8e-3, state=StateKind.PARTITIONED,
                          keys=keys, replication=2),
             OperatorSpec("sink", 0.1e-3, output_selectivity=0.0)],
            [Edge("src", "keyed"), Edge("keyed", "sink")],
        )
        factories = {
            "src": lambda: GeneratorSource(seed=3),
            "keyed": lambda: PaddedOperator(KeyedIdentity(), 8e-3),
            "sink": CountingSink,
        }
        result = run_topology(topology, factories, duration=2.0,
                              config=RuntimeConfig(source_rate=200.0))
        assert result.throughput == pytest.approx(200.0, rel=0.1)


class TestFusionRuntime:
    def test_fused_pipeline_tail_executes_members(self):
        topology = Topology(
            [OperatorSpec("src", 4e-3),
             OperatorSpec("a", 1e-3),
             OperatorSpec("b", 1e-3),
             OperatorSpec("sink", 0.1e-3, output_selectivity=0.0)],
            [Edge("src", "a"), Edge("a", "b"), Edge("b", "sink")],
        )
        fusion = apply_fusion(topology, ["a", "b"], fused_name="F")
        sink = CountingSink()
        factories = {
            "src": lambda: GeneratorSource(seed=1),
            "a": lambda: PaddedOperator(Identity(), 1e-3),
            "b": lambda: PaddedOperator(Identity(), 1e-3),
            "sink": lambda: sink,
        }
        result = run_topology(
            fusion.fused, factories, duration=1.5,
            config=RuntimeConfig(source_rate=200.0),
            fusion_plans=[fusion.plan],
        )
        assert sink.count > 100
        assert result.throughput == pytest.approx(200.0, rel=0.1)


class TestLifecycle:
    def test_double_start_rejected(self):
        topology = pipeline_topology(1.0)
        system = ActorSystem.build(topology, pipeline_factories(1.0),
                                   config=RuntimeConfig(source_rate=100.0))
        system.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                system.start()
        finally:
            system.stop()

    def test_stop_joins_all_actors(self):
        topology = pipeline_topology(1.0)
        system = ActorSystem.build(topology, pipeline_factories(1.0),
                                   config=RuntimeConfig(source_rate=100.0))
        system.start()
        system.stop()
        assert all(not actor.is_alive() for actor in system.actors)

    def test_run_validates_duration(self):
        topology = pipeline_topology(1.0)
        system = ActorSystem.build(topology, pipeline_factories(1.0))
        with pytest.raises(ValueError, match="duration"):
            system.run(0.0)

    def test_missing_factory_falls_back_to_operator_class(self):
        topology = Topology(
            [OperatorSpec("src", 4e-3,
                          operator_class="repro.operators.source_sink."
                                         "GeneratorSource"),
             OperatorSpec("sink", 0.1e-3, output_selectivity=0.0,
                          operator_class="repro.operators.source_sink."
                                         "CountingSink")],
            [Edge("src", "sink")],
        )
        result = run_topology(topology, {}, duration=0.8,
                              config=RuntimeConfig(source_rate=100.0))
        assert result.throughput > 50.0

    def test_unresolvable_operator_rejected(self):
        topology = pipeline_topology(1.0)
        from repro.core.graph import TopologyError
        with pytest.raises(TopologyError, match="no factory"):
            ActorSystem.build(topology, {})


class Blocker(Operator):
    """Holds every item until released."""

    def __init__(self, release):
        self.release = release

    def operator_function(self, item):
        self.release.wait()
        return [item]


def finite_job(work, items=200, replication=3, **config):
    """source -> work x replication -> counting sink over ``items``."""
    topology = Topology(
        [OperatorSpec("src", 1e-4),
         OperatorSpec("work", 2e-3, replication=replication),
         OperatorSpec("sink", 1e-4, output_selectivity=0.0)],
        [Edge("src", "work"), Edge("work", "sink")], name="finite-job")
    sink = CountingSink()
    system = ActorSystem.build(
        topology,
        {"src": lambda: GeneratorSource(seed=7), "work": work,
         "sink": lambda: sink},
        config=RuntimeConfig(max_items=items, mailbox_capacity=64,
                             watchdog=False, **config))
    return system, sink


def lost(system):
    return (sum(s.dropped for s in system.snapshot().values()),
            system.context.dead_letters.total)


class TestFiniteJob:
    """A finite job ends by the plan's order, on ``drain`` and ``stop``
    alike: what the source generated is processed, not guessed drained."""

    WORK = staticmethod(lambda: PaddedOperator(Identity(), 2e-3))

    def test_drain_delivers_every_tuple_of_a_replicated_vertex(self):
        system, sink = finite_job(self.WORK)
        system.start()
        try:
            assert system.drain(20.0) == "completed", system.failure_reason
            assert all(not actor.is_alive() for actor in system.actors)
        finally:
            leaked = system.stop()
        assert (sink.count, leaked, lost(system)) == (200, [], (0, 0))

    def test_stop_loses_nothing_queued_behind_an_emitter(self):
        # The source has joined, so everything it generated sits in the
        # emitter's and the replicas' mailboxes: ``stop`` must close
        # the emitter's before the replicas', not the other way round.
        system, sink = finite_job(self.WORK)
        system.start()
        system.source_actor.join(timeout=20.0)
        leaked = system.stop()
        assert (sink.count, leaked, lost(system)) == (200, [], (0, 0))

    def test_drain_retires_spawned_replicas_before_their_collector(self):
        system, sink = finite_job(self.WORK, replication=1, elastic=True,
                                  source_rate=2000.0)
        system.start()
        try:
            assert system.scale_vertex("work", 3) == 2
            assert system.drain(20.0) == "completed", system.failure_reason
        finally:
            leaked = system.stop()
        assert (sink.count, leaked, lost(system)) == (200, [], (0, 0))
        assert {a.actor_name for a in system.actors} - set(
            system.plan.nodes) == {"work#1", "work#2"}

    def test_timeout_names_the_actor_waited_for(self):
        release = threading.Event()
        # Ten items fit the mailbox: the source exhausts, ``work`` holds.
        system, sink = finite_job(lambda: Blocker(release), items=10,
                                  replication=1)
        system.start()
        try:
            assert system.drain(1.0) == "timeout"
            assert "actor 'work'" in system.failure_reason
        finally:
            release.set()
            assert system.stop() == []

    def test_recover_when_a_checkpointed_crash_requests_rollback(self):
        system, sink = finite_job(
            Identity, replication=1,
            checkpoint=CheckpointConfig(interval_items=50),
            fault_plan=FaultPlan(seed=1, crashes=(CrashFault("work", 20),)))
        system.start()
        try:
            assert system.drain(20.0) == "recover"
            assert system.recovery_vertex == "work"
        finally:
            assert system.stop() == []
        assert sink.count < 200

    def test_failed_on_an_escalation(self):
        escalate = SupervisionPolicy(on_crash=Directive.ESCALATE)
        system, sink = finite_job(
            Identity, replication=1,
            supervisor=SupervisorStrategy(default=escalate),
            fault_plan=FaultPlan(seed=1, crashes=(CrashFault("work", 20),)))
        system.start()
        try:
            assert system.drain(20.0) == "failed"
            assert "work" in system.failure_reason
        finally:
            assert system.stop() == []


class TestRuntimeLatency:
    def test_mean_latency_matches_model(self):
        from repro.core.latency import estimate_latency
        topology = pipeline_topology(3.0)
        result = run_topology(
            topology, pipeline_factories(3.0), duration=1.5,
            config=RuntimeConfig(source_rate=150.0),
        )
        estimate = estimate_latency(topology, source_rate=150.0,
                                    assumption="deterministic")
        measured = result.mean_latency()
        assert measured is not None
        assert measured == pytest.approx(estimate.end_to_end, rel=0.25)

    def test_latency_none_without_sink_samples(self):
        topology = pipeline_topology(1.0)
        system = ActorSystem.build(topology, pipeline_factories(1.0),
                                   config=RuntimeConfig(source_rate=100.0))
        # Without running, no samples exist.
        measurements = system.run(duration=0.3, warmup=0.29)
        # Even a tiny window should catch some items at 100/s, but the
        # API contract matters: either None or a positive float.
        latency = measurements.mean_latency()
        assert latency is None or latency > 0.0
