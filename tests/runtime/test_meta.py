"""Unit tests for the meta-operator actor (paper Algorithm 4)."""

import threading

import pytest

from repro.core.fusion import plan_fusion
from repro.operators.base import Operator, Record, WrappedItem
from repro.operators.basic import Filter, Identity
from repro.runtime.actors import Router, Target
from repro.runtime.mailbox import Batch, BoundedMailbox
from repro.runtime.meta import MetaOperatorActor
from repro.runtime.supervision import (
    ActorContext,
    ActorStopped,
    Directive,
    OperatorCrash,
    SupervisionPolicy,
    SupervisorStrategy,
)
from tests.conftest import make_fig11, make_pipeline


class Tagger(Operator):
    """Appends its own name to the item's trail (records the path)."""

    def __init__(self, tag):
        self.tag = tag

    def operator_function(self, item):
        trail = list(item.get("trail", []))
        trail.append(self.tag)
        return [item.copy_with(trail=trail)]


def build_meta(topology, members, member_ops, external_targets, seed=1,
               member_factories=None, strategy=None, context=None):
    plan = plan_fusion(topology, members, fused_name="F")
    router = Router("F")
    targets = {}
    for name in external_targets:
        target = Target(name, BoundedMailbox(8192, put_timeout=0.05))
        router.add(1.0 / len(external_targets), target)
        targets[name] = target
    actor = MetaOperatorActor(
        name="F", plan=plan, members=member_ops, router=router,
        mailbox=BoundedMailbox(64), stop_event=threading.Event(), seed=seed,
        member_factories=member_factories, strategy=strategy, context=context,
    )
    return actor, targets


class TestSequentialComposition:
    def test_pipeline_members_applied_in_order(self):
        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        actor, targets = build_meta(
            topology, ["op1", "op2"],
            {"op1": Tagger("op1"), "op2": Tagger("op2")},
            ["op3"],
        )
        actor.handle((Record({}), "op0"))
        payload, origin = targets["op3"].mailbox.get()
        assert payload["trail"] == ["op1", "op2"]
        assert origin == "F"

    def test_counters_track_one_activation(self):
        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        actor, _ = build_meta(
            topology, ["op1", "op2"],
            {"op1": Tagger("op1"), "op2": Tagger("op2")},
            ["op3"],
        )
        actor.handle((Record({}), "op0"))
        assert actor.counters.received == 1
        assert actor.counters.processed == 1
        assert actor.counters.emitted == 1

    def test_filter_inside_fusion_consumes_item(self):
        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        actor, targets = build_meta(
            topology, ["op1", "op2"],
            {"op1": Filter(threshold=0.5), "op2": Tagger("op2")},
            ["op3"],
        )
        actor.handle((Record({"value": 0.1}), "op0"))
        assert len(targets["op3"].mailbox) == 0
        actor.handle((Record({"value": 0.9}), "op0"))
        assert len(targets["op3"].mailbox) == 1

    def test_missing_member_operator_rejected(self):
        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="missing member"):
            build_meta(topology, ["op1", "op2"], {"op1": Tagger("op1")},
                       ["op3"])


class TestBranchingSubgraph:
    def test_fig11_paths_exit_to_op6(self, fig11_table1):
        actor, targets = build_meta(
            fig11_table1, ["op3", "op4", "op5"],
            {"op3": Tagger("op3"), "op4": Tagger("op4"),
             "op5": Tagger("op5")},
            ["op6"], seed=3,
        )
        for _ in range(300):
            actor.handle((Record({}), "op1"))
        trails = []
        while len(targets["op6"].mailbox):
            payload, _ = targets["op6"].mailbox.get()
            trails.append(tuple(payload["trail"]))
        assert len(trails) == 300
        observed = set(trails)
        # All paths start at the front-end op3.
        assert all(t[0] == "op3" for t in observed)
        # The three possible routes through the sub-graph all occur.
        assert ("op3", "op5") in observed
        assert ("op3", "op4", "op5") in observed or \
               ("op3", "op4") in observed

    def test_path_probabilities_roughly_respected(self, fig11_table1):
        actor, targets = build_meta(
            fig11_table1, ["op3", "op4", "op5"],
            {"op3": Tagger("op3"), "op4": Tagger("op4"),
             "op5": Tagger("op5")},
            ["op6"], seed=7,
        )
        n = 2000
        for _ in range(n):
            actor.handle((Record({}), "op1"))
        via_op4 = 0
        while len(targets["op6"].mailbox):
            payload, _ = targets["op6"].mailbox.get()
            if "op4" in payload["trail"]:
                via_op4 += 1
        assert abs(via_op4 / n - 0.35) < 0.04


class TestPinnedDestinations:
    def test_member_can_pin_internal_destination(self):
        class PinToOp2(Operator):
            def operator_function(self, item):
                return [WrappedItem(item, destination="op2")]

        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        actor, targets = build_meta(
            topology, ["op1", "op2"],
            {"op1": PinToOp2(), "op2": Tagger("op2")},
            ["op3"],
        )
        actor.handle((Record({}), "op0"))
        payload, _ = targets["op3"].mailbox.get()
        assert payload["trail"] == ["op2"]


class TestLifecycle:
    def test_member_hooks_called(self):
        events = []

        class Hooked(Identity):
            def __init__(self, tag):
                self.tag = tag

            def on_start(self):
                events.append(("start", self.tag))

            def on_stop(self):
                events.append(("stop", self.tag))

        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        actor, _ = build_meta(
            topology, ["op1", "op2"],
            {"op1": Hooked("op1"), "op2": Hooked("op2")},
            ["op3"],
        )
        actor.on_start()
        actor.on_stop()
        assert ("start", "op1") in events and ("stop", "op2") in events


class Crasher(Operator):
    """Tagger whose configured invocation indices raise OperatorCrash."""

    def __init__(self, tag, crash_at=()):
        self.tag = tag
        self.calls = 0
        self.crash_at = set(crash_at)

    def operator_function(self, item):
        index = self.calls
        self.calls += 1
        if index in self.crash_at:
            raise OperatorCrash(f"injected crash at {self.tag} call {index}")
        trail = list(item.get("trail", []))
        trail.append(self.tag)
        return [item.copy_with(trail=trail)]


def fast_restart(**overrides):
    policy = SupervisionPolicy(backoff_base=0.0, backoff_max=0.0, **overrides)
    return SupervisorStrategy(default=policy)


class TestMemberSupervision:
    """A fused member's failures follow its standalone supervision
    policy without corrupting the routing of the other members."""

    def build(self, crash_at, strategy=None, factories=None, context=None):
        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        context = context or ActorContext()
        actor, targets = build_meta(
            topology, ["op1", "op2"],
            {"op1": Tagger("op1"), "op2": Crasher("op2", crash_at)},
            ["op3"],
            member_factories=(factories if factories is not None
                              else {"op2": lambda: Crasher("op2")}),
            strategy=strategy or fast_restart(),
            context=context,
        )
        return actor, targets, context

    def test_member_restart_preserves_downstream_routing(self):
        actor, targets, context = self.build(crash_at=[1])
        for _ in range(4):
            actor.handle((Record({}), "op0"))
        # Item 1 crashed op2; items 0, 2 and 3 flowed through.
        assert len(targets["op3"].mailbox) == 3
        while len(targets["op3"].mailbox):
            payload, origin = targets["op3"].mailbox.get()
            assert payload["trail"] == ["op1", "op2"]
            assert origin == "F"
        events = context.supervision.events
        assert [e.directive for e in events] == ["restart"]
        assert events[0].vertex == "op2"
        assert actor.counters.restarts == 1
        assert actor.counters.failed == 1
        assert context.dead_letters.counts() == {"op2": 1}

    def test_restart_budget_exhaustion_stops_member(self):
        strategy = fast_restart(max_restarts=1, window=60.0)
        actor, targets, context = self.build(crash_at=[1, 2],
                                             strategy=strategy,
                                             factories={"op2": lambda:
                                                        Crasher("op2", [0])})
        for _ in range(5):
            actor.handle((Record({}), "op0"))
        directives = [e.directive for e in context.supervision.events]
        assert directives == ["restart", "stop"]
        # op1 still serves; items headed to the stopped op2 dead-letter.
        dead = context.dead_letters.counts()
        assert dead["op2"] >= 3  # the two crashed items + later arrivals
        assert len(targets["op3"].mailbox) == 1  # only item 0 got through

    def test_stopped_member_does_not_corrupt_sibling_routing(self, fig11_table1):
        context = ActorContext()
        strategy = SupervisorStrategy(default=SupervisionPolicy(
            on_crash=Directive.STOP))
        actor, targets = build_meta(
            fig11_table1, ["op3", "op4", "op5"],
            {"op3": Tagger("op3"), "op4": Crasher("op4", [0]),
             "op5": Tagger("op5")},
            ["op6"], seed=3, strategy=strategy, context=context,
        )
        n = 400
        for _ in range(n):
            actor.handle((Record({}), "op1"))
        assert context.supervision.count("stop") == 1
        delivered = []
        while len(targets["op6"].mailbox):
            payload, _ = targets["op6"].mailbox.get()
            delivered.append(tuple(payload["trail"]))
        # The op3 -> op5 path keeps flowing after op4 stopped...
        assert ("op3", "op5") in set(delivered)
        # ...and nothing that would have passed through op4 leaks out.
        assert all("op4" not in trail for trail in delivered)
        assert context.dead_letters.counts()["op4"] > 0

    def test_front_end_stop_diverts_meta_mailbox(self):
        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        context = ActorContext()
        strategy = SupervisorStrategy(default=SupervisionPolicy(
            on_crash=Directive.STOP))
        actor, _ = build_meta(
            topology, ["op1", "op2"],
            {"op1": Crasher("op1", [0]), "op2": Tagger("op2")},
            ["op3"], strategy=strategy, context=context,
        )
        with pytest.raises(ActorStopped):
            actor.handle((Record({}), "op0"))
        assert actor.mailbox.diverted
        # Later deliveries land in dead letters instead of blocking.
        actor.mailbox.put((Record({}), "op0"))
        assert context.dead_letters.counts()["op1"] >= 2
        # A batch envelope is dead-lettered tuple by tuple.
        before = context.dead_letters.counts()["op1"]
        actor.mailbox.put((Batch((Record({}), Record({}))), "op0"), weight=2)
        assert context.dead_letters.counts()["op1"] == before + 2

    def test_escalate_reaches_the_system(self):
        escalations = []
        context = ActorContext(escalate=lambda vertex, reason:
                               escalations.append((vertex, reason)))
        strategy = SupervisorStrategy(default=SupervisionPolicy(
            on_crash=Directive.ESCALATE))
        actor, _, _ = self.build(crash_at=[0], strategy=strategy,
                                 context=context)
        with pytest.raises(ActorStopped):
            actor.handle((Record({}), "op0"))
        assert escalations and escalations[0][0] == "op2"

    def test_member_without_factory_degrades_restart_to_resume(self):
        actor, targets, context = self.build(crash_at=[0], factories={})
        actor.handle((Record({}), "op0"))
        actor.handle((Record({}), "op0"))
        assert [e.directive for e in context.supervision.events] == ["resume"]
        assert len(targets["op3"].mailbox) == 1


class TestSelectivityInsideFusion:
    def test_windowed_member_decimates(self):
        """Algorithm 4 with a selectivity > 1 member (paper Section 4.2).

        A fused count-window aggregate emits once per slide: the meta
        operator forwards only those activations downstream.
        """
        from repro.operators.aggregates import WindowedSum

        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        actor, targets = build_meta(
            topology, ["op1", "op2"],
            {"op1": WindowedSum(length=10, slide=5, field="value"),
             "op2": Tagger("op2")},
            ["op3"],
        )
        for i in range(20):
            actor.handle((Record({"value": float(i)}), "op0"))
        # 20 inputs / slide 5 = 4 windows emitted through op2 to op3.
        assert len(targets["op3"].mailbox) == 4
        payload, _ = targets["op3"].mailbox.get()
        assert payload["trail"] == ["op2"]
        assert payload["aggregate"] == sum(range(5))  # first firing

    def test_flatmap_member_amplifies(self):
        from repro.operators.basic import FlatMap

        topology = make_pipeline(1.0, 1.0, 1.0, 1.0)
        actor, targets = build_meta(
            topology, ["op1", "op2"],
            {"op1": FlatMap(fanout=3), "op2": Tagger("op2")},
            ["op3"],
        )
        actor.handle((Record({"value": 1.0}), "op0"))
        # One input, three fragments, each through op2.
        assert len(targets["op3"].mailbox) == 3
