"""Aligned-barrier checkpointing and rollback recovery.

Unit coverage of :mod:`repro.runtime.checkpoint` (store, aligner,
control envelopes) plus end-to-end drives of small checkpointed
systems: barriers flow and epochs complete, a crashed run rolled back
by :func:`run_recoverable` reproduces the fault-free output bit-for-
bit, restarts exhausting their budget follow ``on_exhausted``, and a
crash *inside* ``restore_state`` falls back to an older epoch (or a
cold start) instead of looping forever.
"""

import pytest

from repro.core.graph import CheckpointConfig, Edge, OperatorSpec, Topology, TopologyError
from repro.faults.plan import CrashFault, FaultPlan
from repro.operators.aggregates import WindowedSum
from repro.operators.base import Operator
from repro.operators.source_sink import CollectingSink, GeneratorSource, IterableSource
from repro.runtime.checkpoint import (
    Barrier,
    BarrierAligner,
    CheckpointError,
    CheckpointSession,
    CheckpointStore,
    run_recoverable,
)
from repro.runtime.mailbox import BoundedMailbox
from repro.runtime.supervision import (
    DeadLetterSink,
    Directive,
    SupervisionPolicy,
    SupervisorStrategy,
)
from repro.runtime.system import ActorSystem, RuntimeConfig
from repro.testing.differential import canonical


def chain(*, checkpoint=None, name="ckpt-chain"):
    specs = [
        OperatorSpec("source", 0.0001,
                     operator_class="repro.operators.source_sink."
                                    "GeneratorSource",
                     operator_args={"seed": 7}),
        OperatorSpec("win", 0.0001, output_selectivity=0.25,
                     operator_class="repro.operators.aggregates.WindowedSum",
                     operator_args={"length": 4, "slide": 4}),
        OperatorSpec("sink", 0.0001,
                     operator_class="repro.operators.source_sink."
                                    "CollectingSink",
                     operator_args={"capacity": 100_000}),
    ]
    edges = [Edge("source", "win"), Edge("win", "sink")]
    return Topology(specs, edges, name=name, checkpoint=checkpoint)


def chain_factories():
    return {
        "source": lambda: GeneratorSource(seed=7),
        "win": lambda: WindowedSum(length=4, slide=4),
        "sink": lambda: CollectingSink(capacity=100_000),
    }


def run_plain(topology, runtime):
    system = ActorSystem.build(topology, chain_factories(), config=runtime)
    system.start()
    try:
        assert system.drain(20.0) == "completed", system.failure_reason
    finally:
        system.stop()
    return system


def sink_items(system):
    for actor in system.actors:
        operator = getattr(actor, "operator", None)
        while hasattr(operator, "inner"):
            operator = operator.inner
        if isinstance(operator, CollectingSink):
            return [canonical(item) for item in operator.items]
    raise AssertionError("no collecting sink found")


class TestCheckpointConfig:
    def test_defaults(self):
        config = CheckpointConfig()
        assert config.interval_items == 100
        assert config.retained == 2
        assert config.snapshot_overhead == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"interval_items": 0},
        {"retained": 0},
        {"snapshot_overhead": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(TopologyError):
            CheckpointConfig(**kwargs)

    def test_topology_carries_and_derives(self):
        config = CheckpointConfig(interval_items=10)
        topology = chain(checkpoint=config)
        assert topology.checkpoint is config
        assert topology.with_checkpoint(None).checkpoint is None
        replicated = topology.with_replications({"win": 1})
        assert replicated.checkpoint is config


class TestCheckpointStore:
    def test_epoch_completes_when_all_actors_recorded(self):
        store = CheckpointStore()
        store.set_expected(["a", "b"])
        store.record(1, "a", {"x": 1}, offset=100)
        assert store.latest_complete() is None
        store.record(1, "b", {"y": 2})
        snap = store.latest_complete()
        assert snap is not None
        assert snap.epoch == 1
        assert snap.states == {"a": {"x": 1}, "b": {"y": 2}}
        assert snap.source_offset == 100
        assert store.completed == 1 and store.recorded == 2

    def test_retention_prunes_oldest(self):
        store = CheckpointStore(retained=2)
        store.set_expected(["a"])
        for epoch in (1, 2, 3):
            store.record(epoch, "a", epoch)
        assert store.complete_epochs() == (2, 3)
        assert store.latest_complete().epoch == 3

    def test_discard_above_drops_partials_and_completes(self):
        store = CheckpointStore(retained=5)
        store.set_expected(["a", "b"])
        store.record(1, "a", 1)
        store.record(1, "b", 1)
        store.record(2, "a", 2)
        store.record(2, "b", 2)
        store.record(3, "a", 3)  # partial
        store.discard_above(1)
        assert store.complete_epochs() == (1,)
        # the discarded partial is really gone: one record does not
        # complete the epoch, a full replayed set does
        store.record(3, "b", 3)
        assert store.complete_epochs() == (1,)
        store.record(3, "a", 3)
        assert store.complete_epochs() == (1, 3)

    def test_discard_epoch_falls_back_to_older(self):
        store = CheckpointStore(retained=5)
        store.set_expected(["a"])
        store.record(1, "a", 1)
        store.record(2, "a", 2)
        store.discard_epoch(2)
        assert store.latest_complete().epoch == 1

    def test_retained_validation(self):
        with pytest.raises(CheckpointError):
            CheckpointStore(retained=0)


class TestBarrierAligner:
    def test_single_channel_never_defers(self):
        aligner = BarrierAligner(["up"])
        assert aligner.observe(1, "up") is True
        assert not aligner.aligning
        assert not aligner.deferring("up")

    def test_unknown_origin_passes_through(self):
        aligner = BarrierAligner(["a", "b"])
        assert aligner.observe(1, "elsewhere") is True

    def test_two_channels_align_and_defer(self):
        aligner = BarrierAligner(["a", "b"])
        assert aligner.observe(1, "a") is False
        assert aligner.aligning
        assert aligner.deferring("a") and not aligner.deferring("b")
        aligner.defer(("post-barrier", "a"))
        assert aligner.observe(1, "b") is True
        assert not aligner.aligning
        assert aligner.drain() == [("post-barrier", "a")]
        assert aligner.deferred_total == 1
        assert aligner.drain() == []


class TestControlEnvelopes:
    def test_control_put_skips_offered_index(self):
        mailbox = BoundedMailbox(capacity=4)
        mailbox.put(("data", "src"))
        offered = mailbox.offered
        mailbox.put((Barrier(1), "src"), control=True)
        assert mailbox.offered == offered  # barriers are not arrivals
        assert len(mailbox) == 2

    def test_control_put_bypasses_drop_windows(self):
        mailbox = BoundedMailbox(capacity=8)
        mailbox.set_drop_windows([(0, 1000)])
        mailbox.put(("data", "src"))
        assert len(mailbox) == 0 and mailbox.shed == 1
        mailbox.put((Barrier(1), "src"), control=True)
        assert len(mailbox) == 1  # barriers are never shed


class TestBarrierFlow:
    def test_epochs_complete_and_output_matches_unchkpointed(self):
        runtime = RuntimeConfig(max_items=120, seed=3, watchdog=False)
        plain = run_plain(chain(), runtime)
        session = CheckpointSession(CheckpointConfig(interval_items=25))
        checked = ActorSystem.build(
            chain(), chain_factories(), config=runtime, checkpoint=session)
        checked.start()
        try:
            assert checked.drain(20.0) == "completed", checked.failure_reason
        finally:
            checked.stop()
        # 120 items / interval 25 -> barriers at 25, 50, 75, 100
        assert session.store.completed >= 3
        snap = session.store.latest_complete()
        assert set(snap.states) == {"source", "win", "sink"}
        assert snap.source_offset is not None
        assert sum(actor.snapshots_taken for actor in checked.actors) > 0
        # checkpointing is transparent: same bits out
        assert sink_items(checked) == sink_items(plain)

    def test_topology_checkpoint_enables_by_default(self):
        runtime = RuntimeConfig(max_items=60, seed=3, watchdog=False)
        topology = chain(checkpoint=CheckpointConfig(interval_items=20))
        system = run_plain(topology, runtime)
        assert system.checkpoint_session is not None
        assert system.checkpoint_session.store.completed >= 1


class TestRecovery:
    def test_crash_recover_replay_is_bit_equal(self):
        runtime = RuntimeConfig(max_items=120, seed=3, watchdog=False)
        plain = run_plain(chain(), runtime)
        plan = FaultPlan(seed=3, crashes=(CrashFault("sink", 12),))
        faulty = RuntimeConfig(max_items=120, seed=3, watchdog=False,
                               fault_plan=plan)
        result = run_recoverable(
            chain(), chain_factories(), runtime=faulty,
            checkpoint=CheckpointConfig(interval_items=25))
        assert result.outcome == "completed", result.recoveries
        assert result.attempts == 1
        assert result.recoveries[0].vertex == "sink"
        assert sink_items(result.system) == sink_items(plain)

    def test_crash_before_first_epoch_cold_restarts(self):
        runtime = RuntimeConfig(max_items=80, seed=3, watchdog=False)
        plain = run_plain(chain(), runtime)
        plan = FaultPlan(seed=3, crashes=(CrashFault("sink", 0),))
        faulty = RuntimeConfig(max_items=80, seed=3, watchdog=False,
                               fault_plan=plan)
        result = run_recoverable(
            chain(), chain_factories(), runtime=faulty,
            checkpoint=CheckpointConfig(interval_items=1000))
        assert result.outcome == "completed"
        assert result.attempts == 1
        assert result.recoveries[0].restored_epoch is None
        assert sink_items(result.system) == sink_items(plain)

    def test_requires_a_checkpoint_config(self):
        with pytest.raises(CheckpointError):
            run_recoverable(chain(), chain_factories())

    def test_fired_crashes_do_not_refire_on_replay(self):
        # Two crashes -> exactly two rollbacks: the persistent item
        # clocks must keep injected faults from re-firing on replay.
        plan = FaultPlan(seed=3, crashes=(
            CrashFault("sink", 5), CrashFault("sink", 20)))
        faulty = RuntimeConfig(max_items=120, seed=3, watchdog=False,
                               fault_plan=plan)
        result = run_recoverable(
            chain(), chain_factories(), runtime=faulty,
            checkpoint=CheckpointConfig(interval_items=25))
        assert result.outcome == "completed"
        assert result.attempts == 2


class _BrokenRestore(WindowedSum):
    """Snapshots fine; every restore attempt crashes."""

    def restore_state(self, snapshot):
        raise RuntimeError("restore exploded")


class TestRestoreCrash:
    def test_restore_crash_falls_back_then_cold_starts(self):
        factories = chain_factories()
        factories["win"] = lambda: _BrokenRestore(length=4, slide=4)
        plan = FaultPlan(seed=3, crashes=(CrashFault("sink", 12),))
        faulty = RuntimeConfig(max_items=120, seed=3, watchdog=False,
                               fault_plan=plan)
        result = run_recoverable(
            chain(), factories, runtime=faulty,
            checkpoint=CheckpointConfig(interval_items=25, retained=2))
        # crash -> restore fails on the latest epoch, then on the older
        # retained one, then the cold start replays to completion.
        assert result.outcome == "completed"
        reasons = [event.reason for event in result.recoveries]
        assert any(reason.startswith("restore-failed") for reason in reasons)
        assert result.recoveries[-1].restored_epoch is None

    def test_persistently_failing_restore_exhausts_budget(self):
        factories = chain_factories()
        factories["win"] = lambda: _BrokenRestore(length=4, slide=4)
        plan = FaultPlan(seed=3, crashes=(CrashFault("sink", 12),))
        faulty = RuntimeConfig(max_items=120, seed=3, watchdog=False,
                               fault_plan=plan)
        with pytest.raises(CheckpointError, match="budget exhausted"):
            run_recoverable(
                chain(), factories, runtime=faulty, max_recoveries=1,
                checkpoint=CheckpointConfig(interval_items=25, retained=3))


class TestExhaustionDirective:
    def test_exhausted_directive_degrades_restart_to_stop(self):
        policy = SupervisionPolicy(on_exhausted=Directive.RESTART)
        assert policy.exhausted_directive() is Directive.STOP
        policy = SupervisionPolicy(on_exhausted=Directive.ESCALATE)
        assert policy.exhausted_directive() is Directive.ESCALATE

    def test_budget_exhaustion_escalates_when_configured(self):
        # max_restarts=1 with three injected crashes: the second restart
        # attempt exhausts the budget and on_exhausted=ESCALATE aborts
        # the whole system instead of quietly stopping the vertex.
        plan = FaultPlan(seed=3, crashes=tuple(
            CrashFault("win", index) for index in (2, 4, 6)))
        policy = SupervisionPolicy(max_restarts=1, window=60.0,
                                   backoff_base=0.0, backoff_max=0.0,
                                   on_exhausted=Directive.ESCALATE)
        runtime = RuntimeConfig(
            max_items=200, seed=3, watchdog=False, fault_plan=plan,
            supervisor=SupervisorStrategy(default=policy))
        system = ActorSystem.build(chain(), chain_factories(),
                                   config=runtime)
        system.start()
        try:
            assert system.failure.wait(timeout=20.0)
        finally:
            system.stop()
        assert "win" in (system.failure_reason or "")
        assert system.context.supervision.count("escalate") >= 1

    def test_budget_exhaustion_stops_by_default(self):
        plan = FaultPlan(seed=3, crashes=tuple(
            CrashFault("win", index) for index in (2, 4, 6)))
        policy = SupervisionPolicy(max_restarts=1, window=60.0,
                                   backoff_base=0.0, backoff_max=0.0)
        runtime = RuntimeConfig(
            max_items=60, seed=3, watchdog=False, fault_plan=plan,
            supervisor=SupervisorStrategy(default=policy))
        system = run_plain(chain(), runtime)
        assert not system.failure.is_set()
        assert system.context.supervision.count("stop") >= 1


class TestDeadLetterBound:
    def test_evicted_counter_past_cap(self):
        sink = DeadLetterSink(retain=2)
        for index in range(5):
            sink.record("v", {"i": index})
        assert sink.total == 5
        assert len(sink.letters) == 2
        assert sink.evicted == 3

    def test_zero_retention(self):
        sink = DeadLetterSink(retain=0)
        sink.record("v", {"i": 1})
        assert sink.total == 1 and sink.letters == () and sink.evicted == 1

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError):
            DeadLetterSink(retain=-1)

    def test_runtime_config_cap_reaches_context(self):
        runtime = RuntimeConfig(dead_letter_retain=7)
        system = ActorSystem.build(chain(), chain_factories(),
                                   config=runtime)
        try:
            assert system.context.dead_letters.retain == 7
        finally:
            system.stop()


class TestSourceReplay:
    def test_iterable_source_snapshot_roundtrip(self):
        source = IterableSource([{"v": i} for i in range(5)])
        source.operator_function(None)
        source.operator_function(None)
        snap = source.snapshot_state()
        source.operator_function(None)
        source.restore_state(snap)
        assert source.operator_function(None) == [{"v": 2}]

    def test_generator_source_replays_after_restore(self):
        source = GeneratorSource(seed=11)
        first = [source.operator_function(None)[0] for _ in range(3)]
        snap = source.snapshot_state()
        [source.operator_function(None) for _ in range(3)]
        source.restore_state(snap)
        replay = [source.operator_function(None)[0] for _ in range(3)]
        strip = lambda item: {k: v for k, v in item.items() if k != "_born"}
        assert [strip(i) for i in first] != [strip(i) for i in replay]
        # restoring to the *same* point replays identically
        source.restore_state(snap)
        again = [source.operator_function(None)[0] for _ in range(3)]
        assert [strip(i) for i in replay] == [strip(i) for i in again]


class TestOperatorHooks:
    def _drain(self, operator, values):
        outputs = []
        for value in values:
            outputs.extend(operator.operator_function({"value": value}))
        return [canonical(item) for item in outputs]

    def test_default_hooks_roundtrip_behaviour(self):
        # Snapshot mid-window, keep feeding, restore, feed the same
        # tail again: the rolled-back operator must emit the same bits.
        win = WindowedSum(length=4, slide=4)
        self._drain(win, [1.0, 2.0])
        snap = win.snapshot_state()
        first = self._drain(win, [3.0, 4.0, 5.0])
        win.restore_state(snap)
        replay = self._drain(win, [3.0, 4.0, 5.0])
        assert first == replay and first  # the window really fired

    def test_snapshot_is_deep(self):
        # Mutating the live operator after the snapshot must not bleed
        # into a fresh instance restored from that snapshot: the
        # restored copy behaves exactly like an operator that stopped
        # at snapshot time.
        win = WindowedSum(length=4, slide=4)
        self._drain(win, [1.0, 2.0])
        snap = win.snapshot_state()
        self._drain(win, [100.0, 200.0, 300.0])
        fresh = WindowedSum(length=4, slide=4)
        fresh.restore_state(snap)
        original = WindowedSum(length=4, slide=4)
        self._drain(original, [1.0, 2.0])
        assert self._drain(fresh, [3.0, 4.0, 5.0]) == \
            self._drain(original, [3.0, 4.0, 5.0])
