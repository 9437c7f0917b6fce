"""Unit tests for actors, exercised synchronously via handle()."""

import threading

import pytest

from repro.operators.base import Record, WrappedItem
from repro.operators.basic import Filter, FlatMap, Identity
from repro.operators.source_sink import CountingSink
from repro.runtime import synthetic
from repro.runtime.actors import (
    CollectorActor,
    EmitterActor,
    OperatorActor,
    RetireNotice,
    Router,
    Target,
)
from repro.runtime.mailbox import BoundedMailbox
from repro.runtime.supervision import (
    ActorContext,
    Directive,
    SupervisionPolicy,
)
from repro.runtime.synthetic import (
    AdjustablePaddedOperator,
    PaddedOperator,
    ServiceTimeControl,
)


def make_target(name, capacity=16):
    return Target(name, BoundedMailbox(capacity, put_timeout=0.2))


def stop_event():
    return threading.Event()


class TestRouter:
    def test_single_entry_always_resolved(self):
        router = Router("src")
        target = make_target("next")
        router.add(1.0, target)
        assert router.resolve("item") is target

    def test_probabilistic_split_roughly_matches(self):
        router = Router("src", seed=11)
        a, b = make_target("a"), make_target("b")
        router.add(0.2, a)
        router.add(0.8, b)
        hits = sum(1 for _ in range(5000) if router.resolve("x") is a)
        assert abs(hits / 5000 - 0.2) < 0.03

    def test_pinned_destination_bypasses_probabilities(self):
        router = Router("src", seed=1)
        a, b = make_target("a"), make_target("b")
        router.add(0.999, a)
        router.add(0.001, b)
        wrapped = WrappedItem("payload", destination="b")
        assert all(router.resolve(wrapped) is b for _ in range(20))

    def test_unknown_pinned_destination_raises(self):
        router = Router("src")
        router.add(1.0, make_target("a"))
        with pytest.raises(KeyError, match="unknown destination"):
            router.resolve(WrappedItem("x", destination="ghost"))

    def test_no_entries_resolves_none(self):
        assert Router("sink").resolve("item") is None

    def test_counts_recorded(self):
        router = Router("src", seed=2)
        a = make_target("a")
        router.add(1.0, a)
        for _ in range(5):
            router.resolve("x")
        assert router.counts == {"a": 5}


class TestOperatorActor:
    def _actor(self, operator, router=None, **kwargs):
        router = router or Router("op")
        return OperatorActor(
            name="op", vertex="op", operator=operator, router=router,
            mailbox=BoundedMailbox(16), stop_event=stop_event(), **kwargs
        ), router

    def test_processes_and_forwards(self):
        actor, router = self._actor(Identity())
        target = make_target("next")
        router.add(1.0, target)
        actor.handle((Record({"value": 1.0}), "src"))
        assert actor.counters.processed == 1
        assert actor.counters.emitted == 1
        assert len(target.mailbox) == 1

    def test_origin_stamped_into_record(self):
        actor, router = self._actor(Identity())
        target = make_target("next")
        router.add(1.0, target)
        actor.handle((Record({"value": 1.0}), "upstream"))
        payload, origin = target.mailbox.get()
        assert payload["origin"] == "upstream"
        assert origin == "op"

    def test_filter_drop_emits_nothing(self):
        actor, router = self._actor(Filter(threshold=0.5))
        target = make_target("next")
        router.add(1.0, target)
        actor.handle((Record({"value": 0.1}), "src"))
        assert actor.counters.processed == 1
        assert actor.counters.emitted == 0
        assert len(target.mailbox) == 0

    def test_flatmap_emits_fanout(self):
        actor, router = self._actor(FlatMap(fanout=3))
        target = make_target("next")
        router.add(1.0, target)
        actor.handle((Record({"value": 1.0}), "src"))
        assert actor.counters.emitted == 3

    def test_sink_counts_departures_without_targets(self):
        actor, _ = self._actor(Identity())
        actor.handle((Record({}), "src"))
        assert actor.counters.emitted == 1  # result left the topology

    def test_busy_time_accumulates(self):
        actor, _ = self._actor(PaddedOperator(Identity(), 0.01))
        actor.handle((Record({}), "src"))
        assert actor.counters.busy_time >= 0.009

    def test_keep_wrapped_preserves_envelopes(self):
        class Pinning(Identity):
            def operator_function(self, item):
                return [WrappedItem(item, destination="special")]

        router = Router("op")
        target = make_target("special")
        router.add(1.0, target)
        actor, _ = self._actor(Pinning(), router=router, keep_wrapped=True)
        actor.handle((Record({}), "src"))
        payload, _ = target.mailbox.get()
        assert isinstance(payload, WrappedItem)


class TestEmitterActor:
    def _emitter(self, replicas, **kwargs):
        return EmitterActor(
            name="op.emitter", vertex="op", replicas=replicas,
            mailbox=BoundedMailbox(16), stop_event=stop_event(), **kwargs
        )

    def test_round_robin_distribution(self):
        replicas = [make_target(f"op#{i}") for i in range(3)]
        emitter = self._emitter(replicas)
        for i in range(6):
            emitter.handle((i, "src"))
        assert all(len(r.mailbox) == 2 for r in replicas)

    def test_key_assignment_routing(self):
        replicas = [make_target("op#0"), make_target("op#1")]
        emitter = self._emitter(
            replicas,
            key_of=lambda item: item["key"],
            key_assignment={"a": 0, "b": 1},
        )
        emitter.handle((Record({"key": "a"}), "src"))
        emitter.handle((Record({"key": "a"}), "src"))
        emitter.handle((Record({"key": "b"}), "src"))
        assert len(replicas[0].mailbox) == 2
        assert len(replicas[1].mailbox) == 1

    def test_unknown_key_hash_fallback(self):
        replicas = [make_target("op#0"), make_target("op#1")]
        emitter = self._emitter(
            replicas, key_of=lambda item: item["key"], key_assignment={},
        )
        emitter.handle((Record({"key": "zzz"}), "src"))
        assert len(replicas[0].mailbox) + len(replicas[1].mailbox) == 1

    def test_needs_replicas(self):
        with pytest.raises(ValueError, match="replica"):
            self._emitter([])


class TestCollectorActor:
    def test_forwards_with_vertex_origin(self):
        router = Router("op")
        downstream = make_target("next")
        router.add(1.0, downstream)
        collector = CollectorActor(
            name="op.collector", vertex="op", router=router,
            mailbox=BoundedMailbox(16), stop_event=stop_event(),
        )
        collector.handle((Record({"value": 1.0}), "op#2"))
        payload, origin = downstream.mailbox.get()
        assert origin == "op"

    def test_resolves_pinned_wrapper(self):
        router = Router("op")
        a, b = make_target("a"), make_target("b")
        router.add(0.999, a)
        router.add(0.001, b)
        collector = CollectorActor(
            name="op.collector", vertex="op", router=router,
            mailbox=BoundedMailbox(16), stop_event=stop_event(),
        )
        collector.handle((WrappedItem(Record({}), destination="b"), "op#0"))
        assert len(b.mailbox) == 1
        payload, _ = b.mailbox.get()
        assert not isinstance(payload, WrappedItem)  # unwrapped on exit

    def test_counts_terminal_payloads(self):
        collector = CollectorActor(
            name="op.collector", vertex="op", router=Router("op"),
            mailbox=BoundedMailbox(16), stop_event=stop_event(),
        )
        collector.handle((Record({}), "op#0"))
        assert collector.counters.emitted == 1


class TestSupervision:
    def test_raising_operator_is_resumed(self):
        class Flaky(Identity):
            def __init__(self):
                self.calls = 0

            def operator_function(self, item):
                self.calls += 1
                if self.calls % 3 == 0:
                    raise RuntimeError("boom")
                return [item]

        router = Router("op")
        target = make_target("next")
        router.add(1.0, target)
        actor = OperatorActor(
            name="op", vertex="op", operator=Flaky(), router=router,
            mailbox=BoundedMailbox(16), stop_event=stop_event(),
        )
        for i in range(9):
            actor.handle((Record({"value": float(i)}), "src"))
        # Every third item poisons the operator: 3 failures, 6 forwarded.
        assert actor.counters.failed == 3
        assert actor.counters.emitted == 6
        assert actor.counters.received == 9

    def test_failures_do_not_count_as_processed(self):
        class AlwaysFails(Identity):
            def operator_function(self, item):
                raise ValueError("nope")

        actor = OperatorActor(
            name="op", vertex="op", operator=AlwaysFails(),
            router=Router("op"), mailbox=BoundedMailbox(16),
            stop_event=stop_event(),
        )
        actor.handle((Record({}), "src"))
        assert actor.counters.processed == 0
        assert actor.counters.failed == 1

    def test_failure_injection_end_to_end(self):
        """A flaky middle stage must not stall the whole pipeline."""
        import threading
        from repro.core.graph import Edge, OperatorSpec, Topology
        from repro.operators.source_sink import CountingSink, GeneratorSource
        from repro.runtime.system import RuntimeConfig, run_topology

        class Flaky(Identity):
            def operator_function(self, item):
                if item.get("sequence", 0) % 5 == 0:
                    raise RuntimeError("injected fault")
                return [item]

        topology = Topology(
            [OperatorSpec("src", 5e-3),
             OperatorSpec("flaky", 1e-3, output_selectivity=0.8),
             OperatorSpec("sink", 0.1e-3, output_selectivity=0.0)],
            [Edge("src", "flaky"), Edge("flaky", "sink")],
        )
        sink = CountingSink()
        result = run_topology(
            topology,
            {"src": lambda: GeneratorSource(seed=3),
             "flaky": Flaky,
             "sink": lambda: sink},
            duration=1.0,
            config=RuntimeConfig(source_rate=200.0),
        )
        # ~80% of items survive the injected 1-in-5 fault rate.
        assert sink.count > 50
        flaky_rates = result.vertices["flaky"]
        assert flaky_rates.departure_rate == pytest.approx(
            result.vertices["src"].departure_rate * 0.8, rel=0.15)


class TestDrainedBacklog:
    """The run loop pops its backlog from the deque ``get_all`` returns;
    a stop in the middle of it leaves the mailbox as one-at-a-time
    ``get`` would have.  ``run`` is called on the test thread: one drain, no
    scheduling luck."""

    def _actor(self, operator, mailbox, **kwargs):
        router = Router("op")
        target = make_target("next")
        router.add(1.0, target)
        actor = OperatorActor(name="op", vertex="op", operator=operator,
                              router=router, mailbox=mailbox,
                              stop_event=stop_event(), **kwargs)
        return actor, target

    def test_stop_mid_drain_dead_letters_the_rest_in_arrival_order(self):
        mailbox = BoundedMailbox(16)

        class CrashOnThird(Identity):
            calls = 0

            def operator_function(self, item):
                self.calls += 1
                if self.calls == 1:
                    # Arrives while the other nine are still queued.
                    mailbox.put((Record({"seq": 10}), "src"))
                if self.calls == 3:
                    raise RuntimeError("boom")
                return [item]

        for i in range(10):
            mailbox.put((Record({"seq": i}), "src"))
        context = ActorContext()
        actor, target = self._actor(
            CrashOnThird(), mailbox, context=context,
            policy=SupervisionPolicy(on_error=Directive.STOP))
        actor.run()
        assert [(letter.reason, letter.payload["seq"])
                for letter in context.dead_letters.letters] == (
            [("supervision-stop", 2)]
            + [("stopped-actor", i) for i in range(3, 11)])
        assert [payload["seq"] for payload, _ in
                target.mailbox.get_all(timeout=0.1)] == [0, 1]

    def test_backlog_keeps_its_slots_while_it_is_handled(self):
        # BAS as with one-at-a-time ``get``: ``capacity`` queued plus the
        # one message in service, however much was queued at the drain.
        mailbox = BoundedMailbox(3)
        accepted = []

        class PutWhileHandling(Identity):
            def operator_function(self, item):
                if item["seq"] == 0:
                    accepted.extend(
                        mailbox.put((Record({"seq": seq}), "src"),
                                    timeout=0.05) for seq in (3, 4))
                return [item]

        for i in range(3):
            mailbox.put((Record({"seq": i}), "src"))
        actor, target = self._actor(PutWhileHandling(), mailbox)
        actor.stop_event.set()
        actor.run()
        assert accepted == [True, False]
        assert mailbox.dropped == 1
        assert [payload["seq"] for payload, _ in
                target.mailbox.get_all(timeout=0.1)] == [0, 1, 2, 3]

    def test_retire_notice_leaves_what_follows_in_the_mailbox(self):
        mailbox = BoundedMailbox(16)
        notice = RetireNotice()
        for i in range(3):
            mailbox.put((Record({"seq": i}), "src"))
        mailbox.put((notice, "emitter"), control=True)
        for i in range(3, 6):
            mailbox.put((Record({"seq": i}), "src"))
        actor, target = self._actor(Identity(), mailbox)
        actor.run()
        assert notice.done.is_set()
        assert actor.counters.processed == 3
        assert [payload["seq"] for payload, _ in
                target.mailbox.get_all(timeout=0.1)] == [0, 1, 2]
        assert [payload["seq"] for payload, _ in
                mailbox.get_all(timeout=0.1)] == [3, 4, 5]


class _OversleepingClock:
    """Stands in for the ``time`` module: the clock moves only when
    slept, and every sleep lasts 30 % longer than asked."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += 1.3 * seconds


class TestPadding:
    @pytest.mark.parametrize("make", [
        lambda: PaddedOperator(Identity(), 0.002),
        lambda: AdjustablePaddedOperator(Identity(),
                                         ServiceTimeControl(0.002)),
    ])
    def test_mean_service_time_repays_oversleep(self, monkeypatch, make):
        clock = _OversleepingClock()
        monkeypatch.setattr(synthetic, "time", clock)
        operator = make()
        for i in range(1000):
            operator.operator_function(Record({"seq": i}))
        assert clock.now / 1000 == pytest.approx(0.002, rel=0.01)
