"""The physical plan: one translation from a topology to actors.

Both backends wire what :func:`repro.core.physical.build_plan` returns,
so its shape is pinned here once — over the paper's testbed and its
fissioned versions — together with what the readers derive from it: the
actor set of the threaded system, the shard partition and channels of a
placed plan, and the barrier channels of a checkpointed one.
"""

import pytest

from repro.core.fission import eliminate_bottlenecks
from repro.core.fusion import apply_fusion
from repro.core.graph import (
    CheckpointConfig,
    Edge,
    OperatorSpec,
    StateKind,
    Topology,
)
from repro.core.physical import build_plan
from repro.operators.basic import Identity
from repro.operators.source_sink import CollectingSink, GeneratorSource
from repro.runtime.checkpoint import CheckpointSession
from repro.runtime.system import ActorSystem, RuntimeConfig
from repro.topology import generate_testbed

TESTBED = generate_testbed(10)
FISSIONED = [eliminate_bottlenecks(t, code_safety="off").optimized
             for t in TESTBED]
DEFAULTS = dict(batch_size=1, batch_flush_timeout=0.05,
                partition_heuristic="greedy")


def plan_of(topology, placement=None, **overrides):
    return build_plan(topology, placement, **{**DEFAULTS, **overrides})


@pytest.mark.parametrize("topology", TESTBED + FISSIONED,
                         ids=lambda t: t.name)
class TestShape:
    def test_order_is_a_topological_order_of_the_links(self, topology):
        plan = plan_of(topology)
        assert sorted(plan.order) == sorted(plan.nodes)
        rank = {nid: index for index, nid in enumerate(plan.order)}
        assert all(rank[link.sender] < rank[link.receiver]
                   for link in plan.links)

    def test_every_logical_edge_is_exactly_one_route_link(self, topology):
        plan = plan_of(topology)
        routes = sorted(
            (plan.nodes[link.sender].vertex,
             plan.nodes[link.receiver].vertex, link.probability)
            for link in plan.links if link.kind == "route")
        assert routes == sorted((e.source, e.target, e.probability)
                                for e in topology.edges)
        for link in plan.links:
            if link.kind == "route":
                assert link.sender == plan.exit[plan.nodes[link.sender].vertex]
                assert (link.receiver
                        == plan.entry[plan.nodes[link.receiver].vertex])

    def test_the_threaded_system_has_one_actor_per_node(self, topology):
        system = ActorSystem.build(
            topology, {name: Identity for name in topology.names},
            config=RuntimeConfig(watchdog=False))
        assert ({actor.actor_name for actor in system.actors}
                == set(plan_of(topology).nodes))
        assert set(system.mailboxes) == (set(system.plan.nodes)
                                         - {topology.source})

    def test_placement_partitions_the_same_nodes(self, topology):
        placement = {
            spec.name: tuple((index + replica) % 2
                             for replica in range(spec.replication))
            for index, spec in enumerate(topology.operators)}
        flat, placed = plan_of(topology), plan_of(topology, placement)
        assert placed.order == flat.order
        assert ([(l.sender, l.receiver, l.kind) for l in placed.links]
                == [(l.sender, l.receiver, l.kind) for l in flat.links])
        shards = [placed.shard_nodes(0), placed.shard_nodes(1)]
        assert (sorted(n.node_id for nodes in shards for n in nodes)
                == sorted(flat.nodes))
        for spec in topology.operators:
            replicas = [placed.nodes[nid].shard for nid in placed.order
                        if placed.nodes[nid].vertex == spec.name
                        and placed.nodes[nid].kind in ("replica", "single",
                                                       "source")]
            assert tuple(replicas) == placement[spec.name]
        crossing = [l for l in placed.links
                    if placed.nodes[l.sender].shard
                    != placed.nodes[l.receiver].shard]
        assert placed.channel_count == len(crossing)
        assert ([l.channel for l in crossing]
                == list(range(len(crossing))))
        assert flat.channel_count == 0
        assert all(l.channel is None for l in flat.links)


def small(replication=1, state=StateKind.STATELESS):
    return Topology(
        [OperatorSpec("src", 1e-3),
         OperatorSpec("work", 1e-3, replication=replication, state=state),
         OperatorSpec("sink", 1e-4, output_selectivity=0.0,
                      state=StateKind.STATEFUL)],
        [Edge("src", "work"), Edge("work", "sink")], name="small")


class TestNodeKinds:
    def kinds(self, plan):
        return [(nid, plan.nodes[nid].kind) for nid in plan.order]

    def test_single_and_ensemble(self):
        assert self.kinds(plan_of(small())) == [
            ("src", "source"), ("work", "single"), ("sink", "single")]
        assert self.kinds(plan_of(small(replication=2))) == [
            ("src", "source"), ("work.emitter", "emitter"),
            ("work#0", "replica"), ("work#1", "replica"),
            ("work.collector", "collector"), ("sink", "single")]

    def test_elastic_is_a_property_of_the_plan(self):
        # Stateless vertices become ensembles even at degree 1; the
        # source and the stateful sink do not.
        plan = plan_of(small(), elastic=True)
        assert self.kinds(plan) == [
            ("src", "source"), ("work.emitter", "emitter"),
            ("work#0", "replica"), ("work.collector", "collector"),
            ("sink", "single")]
        assert plan.entry["work"] == "work.emitter"
        assert plan.exit["work"] == "work.collector"

    def test_fused_vertices_are_one_node_whatever_their_degree(self):
        plan = plan_of(small(replication=2), fused=["work"])
        assert self.kinds(plan) == [
            ("src", "source"), ("work", "fused"), ("sink", "single")]

    def test_links_carry_the_edge_batching_or_the_default(self):
        from repro.core.graph import BatchConfig

        topology = Topology(
            [OperatorSpec("src", 1e-3), OperatorSpec("work", 1e-3),
             OperatorSpec("sink", 1e-4, output_selectivity=0.0)],
            [Edge("src", "work", batch=BatchConfig(size=8,
                                                   flush_timeout=0.2)),
             Edge("work", "sink")])
        plan = plan_of(topology, batch_size=4, batch_flush_timeout=0.01)
        assert [(l.batch_size, l.flush_timeout) for l in plan.links] == [
            (8, 0.2), (4, 0.01)]


def test_barrier_channels_read_off_the_plan_equal_the_hand_wired_ones():
    """A diamond into a replicated vertex into a fused one: the channel
    sets below are what the wiring derived before it read the plan."""
    topology = Topology(
        [OperatorSpec("src", 1e-3), OperatorSpec("a", 1e-3),
         OperatorSpec("b", 1e-3), OperatorSpec("m", 1e-3, replication=2),
         OperatorSpec("c", 1e-3), OperatorSpec("d", 1e-3),
         OperatorSpec("sink", 1e-4, output_selectivity=0.0)],
        [Edge("src", "a", 0.5), Edge("src", "b", 0.5), Edge("a", "m"),
         Edge("b", "m"), Edge("m", "c"), Edge("c", "d"), Edge("d", "sink")],
        name="barriers")
    fusion = apply_fusion(topology, ["c", "d"], fused_name="F")
    factories = {name: Identity for name in "abmcd"}
    factories["src"] = lambda: GeneratorSource(seed=1)
    factories["sink"] = CollectingSink
    system = ActorSystem.build(
        fusion.fused, factories, fusion_plans=[fusion.plan],
        config=RuntimeConfig(watchdog=False, unsafe=True),
        checkpoint=CheckpointSession(CheckpointConfig(interval_items=10)))
    wired = {actor.actor_name: (actor.origin_name,
                                sorted(actor._aligner.channels),
                                [t.name for t in actor._barrier_targets])
             for actor in system.actors}
    assert wired == {
        "src": ("src", [], ["a", "b"]),
        "a": ("a", ["src"], ["m"]),
        "b": ("b", ["src"], ["m"]),
        "m.emitter": ("m.emitter", ["a", "b"], ["m", "m"]),
        "m#0": ("m#0", ["m.emitter"], ["m"]),
        "m#1": ("m#1", ["m.emitter"], ["m"]),
        "m.collector": ("m", ["m#0", "m#1"], ["F"]),
        "F": ("F", ["m"], ["sink"]),
        "sink": ("sink", ["F"], []),
    }
