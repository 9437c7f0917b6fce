"""Unit tests of the online-adaptation building blocks.

The end-to-end adaptation oracles live under ``tests/conformance/``;
these tests pin the individual mechanisms: live replica resizes and
in-band migrations lose zero tuples, the online estimators are
deterministic and confidence-gated, ``plan_reconfiguration`` is a pure
function of its inputs, and the elastic wiring rejects configurations
it cannot honor.
"""

import json
import time

import pytest

from repro.core.graph import (
    CheckpointConfig,
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)
from repro.operators.basic import Identity
from repro.operators.source_sink import CollectingSink, GeneratorSource
from repro.profiling.online import EstimatorConfig, OnlineEstimator, VertexEstimate
from repro.runtime.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    plan_reconfiguration,
    wait_for_adaptation,
)
from repro.runtime.synthetic import PaddedOperator
from repro.runtime.system import ActorSystem, RuntimeConfig
from repro.testing import ConformanceConfig, choose_shift, topology_for_seed
from tests.conftest import KeyedCounter


def elastic_pipeline():
    return Topology(
        [OperatorSpec("src", 0.5e-3),
         OperatorSpec("work", 1.0e-3),
         OperatorSpec("sink", 0.1e-3, output_selectivity=0.0)],
        [Edge("src", "work"), Edge("work", "sink")],
        name="elastic-pipeline",
    )


def elastic_factories(sink):
    return {
        "src": lambda: GeneratorSource(seed=5),
        "work": lambda: PaddedOperator(Identity(), 1.0e-3),
        "sink": lambda: sink,
    }


def drain(system, timeout=15.0):
    """Run the finite job to its end: every actor retired in order."""
    assert system.drain(timeout) == "completed", system.failure_reason


class TestLiveScaling:
    def test_scale_up_then_down_loses_nothing(self):
        sink = CollectingSink()
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(sink),
            config=RuntimeConfig(elastic=True, source_rate=2000.0,
                                 max_items=400, seed=5, watchdog=False),
        )
        system.start()
        try:
            time.sleep(0.05)
            assert system.scale_vertex("work", 3) == 2
            time.sleep(0.05)
            assert system.scale_vertex("work", 1) == -2
            drain(system)
        finally:
            leaked = system.stop()
        assert leaked == []
        assert sink.count == 400
        assert system.replication_of("work") == 1
        assert system.reconfigurations == 2
        assert sum(s.dropped for s in system.snapshot().values()) == 0

    def test_scale_requires_elastic_build(self):
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(CollectingSink()),
            config=RuntimeConfig(max_items=10),
        )
        with pytest.raises(TopologyError, match="live-scalable"):
            system.scale_vertex("work", 2)

    def test_scale_rejects_zero_replicas(self):
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(CollectingSink()),
            config=RuntimeConfig(elastic=True, max_items=10),
        )
        with pytest.raises(ValueError):
            system.scale_vertex("work", 0)

    def test_elastic_mode_rejects_checkpointing(self):
        with pytest.raises(TopologyError, match="elastic"):
            ActorSystem.build(
                elastic_pipeline(), elastic_factories(CollectingSink()),
                config=RuntimeConfig(elastic=True,
                                     checkpoint=CheckpointConfig()),
            )

    def test_set_source_rate_mid_run(self):
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(CollectingSink()),
            config=RuntimeConfig(elastic=True, source_rate=100.0,
                                 max_items=50, watchdog=False),
        )
        system.start()
        try:
            system.set_source_rate(5000.0)
            assert system.source_actor.rate == 5000.0
            drain(system)
        finally:
            system.stop()


class TestBatchedEnsembleReconfiguration:
    """Scaling and migrating an ensemble whose links batch by 8."""

    def test_scale_3_1_2_1_under_load_loses_nothing(self):
        topology = Topology(
            [OperatorSpec("src", 0.5e-3),
             OperatorSpec("work", 1.0e-3, replication=3),
             OperatorSpec("sink", 0.1e-3, output_selectivity=0.0)],
            [Edge("src", "work"), Edge("work", "sink")],
            name="batched-elastic")
        # Replicas slower than the source, and mailboxes of two batches:
        # every resize lands on a saturated ensemble.
        items = 600
        for trial in range(20):
            sink = CollectingSink()
            system = ActorSystem.build(
                topology, {"src": lambda: GeneratorSource(seed=trial),
                           "work": lambda: PaddedOperator(Identity(), 2e-4),
                           "sink": lambda: sink},
                config=RuntimeConfig(elastic=True, max_items=items,
                                     mailbox_capacity=2,
                                     batch_size=8, batch_flush_timeout=60.0,
                                     seed=trial, watchdog=False))
            system.start()
            try:
                for replicas in (1, 2, 1):
                    time.sleep(0.01)
                    system.scale_vertex("work", replicas)
                drain(system)
            finally:
                leaked = system.stop()
            assert leaked == []
            assert sink.count == items, f"trial {trial}"
            assert system.context.dead_letters.total == 0, f"trial {trial}"
            assert system.replication_of("work") == 1

    def test_migrating_a_batched_partitioned_ensemble_keeps_key_counts(self):
        topology = Topology(
            [OperatorSpec("src", 0.5e-3),
             OperatorSpec("keyed", 1.0e-3, state=StateKind.PARTITIONED,
                          replication=2, keys=KeyDistribution.uniform(64)),
             OperatorSpec("sink", 0.1e-3, state=StateKind.STATEFUL,
                          output_selectivity=0.0)],
            [Edge("src", "keyed"), Edge("keyed", "sink")],
            name="batched-keyed")
        items = 1500
        sink = CollectingSink(capacity=items)
        system = ActorSystem.build(
            topology, {"src": lambda: GeneratorSource(seed=5),
                       "keyed": KeyedCounter, "sink": lambda: sink},
            config=RuntimeConfig(source_rate=20_000.0, max_items=items,
                                 batch_size=8, batch_flush_timeout=60.0,
                                 seed=5, watchdog=False))
        system.start()
        try:
            time.sleep(0.02)
            ticket = system.migrate_vertex("keyed", timeout=10.0)
            assert ticket.ok, ticket.errors
            drain(system)
        finally:
            system.stop()
        assert sink.count == items
        assert sum(a.migrations for a in system.actors) == 2
        seen = {}
        for record in sink.items:
            seen.setdefault(record["key"], []).append(record["seen"])
        # Each key's count ran 1, 2, ..., n across the migration.
        assert all(sorted(counts) == list(range(1, len(counts) + 1))
                   for counts in seen.values())


class TestLiveMigration:
    def test_migrate_stateful_sink_keeps_every_tuple(self):
        sink = CollectingSink()
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(sink),
            config=RuntimeConfig(elastic=True, source_rate=2000.0,
                                 max_items=300, seed=5, watchdog=False),
        )
        system.start()
        try:
            time.sleep(0.03)
            ticket = system.migrate_vertex("sink", timeout=10.0)
            assert ticket.ok, ticket.errors
            drain(system)
        finally:
            system.stop()
        # The collected items straddle the migration: state moved intact.
        assert sink.count == 300
        assert system.reconfigurations == 1

    def test_migrating_the_source_is_rejected(self):
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(CollectingSink()),
            config=RuntimeConfig(elastic=True, max_items=10),
        )
        with pytest.raises(TopologyError, match="source"):
            system.migrate_vertex("src")


class TestOnlineEstimator:
    CONFIG = EstimatorConfig(window_ticks=3, min_items=10)

    def test_identical_tick_sequences_agree_bit_for_bit(self):
        ticks = [(12, 24, 0.06), (8, 16, 0.04), (20, 40, 0.10)]
        a = OnlineEstimator("v", self.CONFIG)
        b = OnlineEstimator("v", self.CONFIG)
        for processed, emitted, busy in ticks:
            a.observe(processed, emitted, busy)
            b.observe(processed, emitted, busy)
        assert a.estimate() == b.estimate()
        assert a.estimate().service_time == pytest.approx(0.005)
        assert a.estimate().gain == pytest.approx(2.0)

    def test_confidence_gates_on_min_items(self):
        estimator = OnlineEstimator("v", self.CONFIG)
        estimator.observe(3, 3, 0.01)
        assert not estimator.estimate().confident
        estimator.observe(20, 20, 0.05)
        assert estimator.estimate().confident

    def test_reset_clears_the_window(self):
        estimator = OnlineEstimator("v", self.CONFIG)
        estimator.observe(50, 50, 0.1)
        assert estimator.estimate().confident
        estimator.reset()
        assert not estimator.estimate().confident


class TestPlanReconfiguration:
    TOPOLOGY = Topology(
        [OperatorSpec("src", 4e-3),
         OperatorSpec("work", 1e-3),
         OperatorSpec("sink", 0.1e-3, output_selectivity=0.0)],
        [Edge("src", "work"), Edge("work", "sink")],
        name="replan-pipeline",
    )

    def drifted(self):
        return {"work": VertexEstimate(vertex="work", service_time=8e-3,
                                       gain=1.0, samples=100,
                                       confident=True)}

    def test_pure_function_replays_identically(self):
        config = AdaptiveConfig()
        first = plan_reconfiguration(
            self.TOPOLOGY, {"src": 1, "work": 1, "sink": 1},
            self.drifted(), 250.0, ("work", "sink"), config)
        second = plan_reconfiguration(
            self.TOPOLOGY, {"src": 1, "work": 1, "sink": 1},
            self.drifted(), 250.0, ("work", "sink"), config)
        assert first[1] == second[1]
        assert first[0] is not None
        assert [(a.vertex, a.before, a.after) for a in first[0].actions] == \
            [(a.vertex, a.before, a.after) for a in second[0].actions]

    def test_drifted_bottleneck_scales_up(self):
        diff, reason = plan_reconfiguration(
            self.TOPOLOGY, {"src": 1, "work": 1, "sink": 1},
            self.drifted(), 250.0, ("work", "sink"), AdaptiveConfig())
        assert diff is not None, reason
        resized = {action.vertex: action.after for action in diff.actions}
        assert resized.get("work", 1) > 1

    def test_no_confident_drift_stands_pat(self):
        diff, reason = plan_reconfiguration(
            self.TOPOLOGY, {"src": 1, "work": 1, "sink": 1},
            {}, 250.0, ("work", "sink"), AdaptiveConfig())
        assert diff is None
        assert "no confident" in reason


class TestController:
    def test_decision_log_is_json_ready(self):
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(CollectingSink()),
            config=RuntimeConfig(elastic=True, max_items=10),
        )
        controller = AdaptiveController(system, elastic_pipeline())
        decision = controller.tick()
        assert not decision.fired
        encoded = json.dumps(controller.decision_log())
        assert "no confident" in encoded

    def test_wait_for_adaptation_times_out_quietly(self):
        system = ActorSystem.build(
            elastic_pipeline(), elastic_factories(CollectingSink()),
            config=RuntimeConfig(elastic=True, max_items=10),
        )
        controller = AdaptiveController(system, elastic_pipeline())
        assert not wait_for_adaptation(controller, timeout=0.05)


class TestChooseShift:
    def test_same_seed_same_shift(self):
        config = ConformanceConfig()
        topology = topology_for_seed(
            100, config, generator=config.runtime_generator_config())
        rate = topology.operator(topology.source).service_rate
        assert choose_shift(topology, rate, 100) == \
            choose_shift(topology, rate, 100)

    def test_shift_creates_a_real_bottleneck(self):
        config = ConformanceConfig()
        topology = topology_for_seed(
            101, config, generator=config.runtime_generator_config())
        rate = topology.operator(topology.source).service_rate
        vertex, factor = choose_shift(topology, rate, 101)
        assert vertex != topology.source
        assert factor >= 3.0
