"""The SS3xx verdicts gating every backend's entry point.

The acceptance case of the subsystem: an operator whose ``__init__``
captures a lambda is refused — with the rule ID in the error — by the
process backend, the deployment-plan generator and the sharded
placement (which pins it to the glue shard instead of scattering it),
while ``unsafe=True`` remains an explicit escape hatch everywhere.
"""

import pytest

from repro.codegen.deployment import deployment_plan, shard_placement
from repro.core.graph import (
    CheckpointConfig,
    Edge,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.checkpoint import run_recoverable
from repro.runtime.procshard import ProcShardConfig, ProcShardSystem
from repro.runtime.system import ActorSystem, RuntimeConfig

from tests.analysis.fixtures import deployfixtures as fx
from tests.analysis.fixtures import opfixtures

SOURCE_CLASS = "repro.operators.source_sink.GeneratorSource"
SINK_CLASS = "repro.operators.source_sink.CollectingSink"


def _runnable(work_class, work_state=StateKind.STATELESS,
              checkpoint=None, replication=1):
    return Topology(
        operators=[
            OperatorSpec("source", service_time=0.001,
                         operator_class=SOURCE_CLASS,
                         operator_args={"seed": 7}),
            OperatorSpec("work", service_time=0.0005, state=work_state,
                         replication=replication,
                         operator_class=work_class),
            OperatorSpec("sink", service_time=0.0002,
                         state=StateKind.STATEFUL,
                         output_selectivity=0.0,
                         operator_class=SINK_CLASS),
        ],
        edges=[Edge("source", "work"), Edge("work", "sink")],
        name="gate-pipeline",
        checkpoint=checkpoint,
    )


def _factories(topology):
    from repro.testing.differential import topology_factories

    return topology_factories(topology)


class TestActorSystemGate:
    def test_checkpointed_build_refuses_unsnapshotable_state(self):
        topology = _runnable(fx.RESOURCE_NO_HOOKS_PATH, StateKind.STATEFUL,
                             checkpoint=CheckpointConfig(interval_items=25))
        with pytest.raises(TopologyError, match="SS302"):
            ActorSystem.build(topology, _factories(topology),
                              config=RuntimeConfig(watchdog=False))

    def test_unsafe_flag_overrides_the_gate(self):
        topology = _runnable(fx.RESOURCE_NO_HOOKS_PATH, StateKind.STATEFUL,
                             checkpoint=CheckpointConfig(interval_items=25))
        system = ActorSystem.build(
            topology, _factories(topology),
            config=RuntimeConfig(watchdog=False, unsafe=True))
        system.stop()

    def test_elastic_build_refuses_global_writers(self):
        topology = _runnable(fx.GLOBAL_APPENDER_PATH)
        with pytest.raises(TopologyError, match="SS305"):
            ActorSystem.build(topology, _factories(topology),
                              config=RuntimeConfig(watchdog=False,
                                                   elastic=True))

    def test_elastic_with_checkpoint_names_ss310(self):
        topology = _runnable(fx.MODULE_FN_PATH)
        config = RuntimeConfig(watchdog=False, elastic=True,
                               checkpoint=CheckpointConfig())
        with pytest.raises(TopologyError, match="SS310"):
            ActorSystem.build(topology, _factories(topology), config=config)

    def test_threaded_build_is_not_gated(self):
        # No checkpoint, no elasticity: lambdas and globals are legal.
        topology = _runnable(fx.LAMBDA_CLOSURE_PATH)
        system = ActorSystem.build(topology, _factories(topology),
                                   config=RuntimeConfig(watchdog=False))
        system.stop()


class TestRecoverableGate:
    def test_refuses_before_spawning_anything(self):
        topology = _runnable(fx.HALF_HOOKED_PATH, StateKind.STATEFUL)
        with pytest.raises(TopologyError, match="SS302"):
            run_recoverable(topology, _factories(topology),
                            runtime=RuntimeConfig(max_items=10,
                                                  watchdog=False),
                            checkpoint=CheckpointConfig(interval_items=5))


class TestProcShardGate:
    def test_refuses_unpicklable_operator(self):
        topology = _runnable(fx.LAMBDA_CLOSURE_PATH)
        with pytest.raises(TopologyError, match="SS301"):
            ProcShardSystem.build(
                topology, _factories(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "work": (1,), "sink": (0,)})

    def test_refuses_scattered_stateful_operator(self):
        topology = _runnable(fx.PLAIN_STATE_PATH, StateKind.STATEFUL,
                             replication=2)
        with pytest.raises(TopologyError, match="SS312"):
            ProcShardSystem.build(
                topology, _factories(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "work": (0, 1), "sink": (0,)})

    def test_placement_errors_name_ss311(self):
        topology = _runnable(fx.MODULE_FN_PATH)
        with pytest.raises(TopologyError, match="SS311"):
            ProcShardSystem.build(
                topology, _factories(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "work": (0, 1), "sink": (0,)})

    def test_refuses_a_scattered_operator_that_only_claims_statelessness(self):
        # verify_plan's SS312 looks through the declaration (the
        # topology of test_ss312_sees_through_declared_stateless); the
        # build gate is that rule, not a second reading of it.
        topology = _runnable(opfixtures.SNEAKY_COUNTER_PATH, replication=2)
        with pytest.raises(TopologyError, match="SS312"):
            ProcShardSystem.build(
                topology, _factories(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "work": (0, 1), "sink": (0,)})

    def test_refuses_a_placement_naming_an_unknown_operator(self):
        topology = _runnable(fx.MODULE_FN_PATH)
        with pytest.raises(TopologyError, match=r"SS311 \[ghost\]"):
            ProcShardSystem.build(
                topology, _factories(topology),
                config=ProcShardConfig(shards=2),
                placement={"source": (0,), "work": (1,), "sink": (0,),
                           "ghost": (1,)})


class TestDeploymentPlanGate:
    def test_sharded_plan_refuses_unpicklable_closure(self):
        """The PR's acceptance criterion: deployment_plan(shards=N)
        rejects an operator whose __init__ captures a lambda."""
        topology = _runnable(fx.LAMBDA_CLOSURE_PATH)
        with pytest.raises(TopologyError, match="SS301") as excinfo:
            deployment_plan(topology, shards=2)
        assert "work" in str(excinfo.value)

    def test_unsafe_flag_overrides(self):
        topology = _runnable(fx.LAMBDA_CLOSURE_PATH)
        plan = deployment_plan(topology, shards=2, unsafe=True)
        assert "shards" in plan

    def test_unsharded_plan_is_not_process_gated(self):
        # Without shards the plan targets the threaded backend, where
        # closure-holding state never crosses a pickle boundary.
        topology = _runnable(fx.LAMBDA_CLOSURE_PATH)
        assert isinstance(deployment_plan(topology), dict)

    def test_checkpointed_plan_refuses_unsnapshotable_state(self):
        topology = _runnable(fx.RESOURCE_NO_HOOKS_PATH, StateKind.STATEFUL,
                             checkpoint=CheckpointConfig(interval_items=25))
        with pytest.raises(TopologyError, match="SS302"):
            deployment_plan(topology)


class TestShardPlacementPinning:
    def test_unsafe_operator_is_pinned_to_the_glue_shard(self):
        topology = _runnable(fx.LAMBDA_CLOSURE_PATH, replication=2)
        placement = shard_placement(topology, shards=3)
        assert placement.by_vertex["work"] == (0, 0)
        assert "SS301" in placement.reasons["work"]

    def test_safe_operators_still_spread(self):
        topology = _runnable(fx.MODULE_FN_PATH, replication=2)
        placement = shard_placement(topology, shards=2)
        assert set(placement.by_vertex["work"]) <= {0, 1}


class TestAdaptiveConfigGate:
    def test_zero_cooldown_is_rejected_with_rule_id(self):
        with pytest.raises(ValueError, match="SS314"):
            AdaptiveConfig(cooldown_ticks=0)

    def test_unsafe_flag_allows_it(self):
        assert AdaptiveConfig(cooldown_ticks=0, unsafe=True).cooldown_ticks == 0
