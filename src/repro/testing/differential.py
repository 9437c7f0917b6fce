"""Differential conformance: bit-equality across execution modes.

The batching and fusion-to-loop optimizations are *transparent* by
contract: they may change how fast tuples move, never which tuples
arrive or what they contain.  This module turns that contract into a
checkable oracle.  A seeded random *chain testbed* (source → pure
member chain → collecting sink) is executed twice under two different
runtime configurations — unbatched vs batched mailboxes, or meta-actor
vs loop-compiled fusion — and the canonicalized sink contents must be
**bit-equal**: same records, same values, same order.

Determinism argument: the testbeds are linear chains (every vertex has
in-degree and out-degree ≤ 1), so each vertex processes the unique
totally-ordered stream of its predecessor regardless of thread
scheduling; sources are seeded and run to ``max_items`` exhaustion
rather than a wall-clock window, so both executions see exactly the
same input sequence.  The only nondeterministic field is the ``_born``
wall-clock stamp, which :func:`canonical` strips.

On divergence, the failing case is minimized: batching divergences
shrink through :func:`repro.testing.shrink.shrink` (vertex/edge
deletion), and loop divergences reduce the fused chain member-by-member
— either way the report carries the smallest kernel that still
disagrees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.fusion import FusionPlan, apply_fusion
from repro.core.graph import (
    BatchConfig,
    CheckpointConfig,
    Edge,
    OperatorSpec,
    Topology,
)
from repro.faults.plan import CrashFault, FaultPlan, PoisonFault
from repro.operators.base import instantiate_operator
from repro.operators.source_sink import CollectingSink
from repro.runtime.checkpoint import run_recoverable
from repro.runtime.system import ActorSystem, RuntimeConfig
from repro.testing.shrink import ShrinkResult, shrink

#: Pure, deterministic chain-member templates: (class path, args builder).
#: Every template must pass the SS2xx purity gate — the loop eligibility
#: of the testbeds depends on it (asserted by the property tests).
_MEMBER_TEMPLATES: Tuple = (
    ("repro.operators.basic.FieldMap",
     lambda rng: {"field": "value"}, 1.0),
    ("repro.operators.basic.ArithmeticMap",
     lambda rng: {"fields": ("value",)}, 1.0),
    ("repro.operators.basic.Identity",
     lambda rng: {}, 1.0),
    ("repro.operators.basic.Filter",
     lambda rng: {"field": "value",
                  "threshold": round(rng.uniform(0.2, 0.8), 3)}, 0.5),
    ("repro.operators.basic.FlatMap",
     lambda rng: {"fanout": rng.randint(2, 3)}, 2.0),
    ("repro.operators.aggregates.WindowedSum",
     lambda rng: {"length": rng.randint(4, 16), "slide": 4}, 0.25),
)


@dataclass(frozen=True)
class DifferentialConfig:
    """Knobs of a differential run."""

    #: Items the seeded source generates before exhausting.
    items: int = 300
    mailbox_capacity: int = 32
    #: Batched-side configuration of the batching differentials.
    batch_size: int = 4
    #: Member-chain length bounds of the random testbeds.
    min_members: int = 2
    max_members: int = 4
    #: Hard deadline, in seconds, on one run ending by its own order
    #: (``ActorSystem.drain`` / the process backend's EOS cascade).
    quiet_timeout: float = 20.0
    #: Minimize failing cases before reporting.
    shrink_failures: bool = True


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one seeded differential comparison."""

    seed: int
    mode_a: str
    mode_b: str
    ok: bool
    #: Human-readable divergences (empty when ok).
    divergences: Tuple[str, ...] = ()
    #: Minimal reproducing topology when a shrink succeeded.
    shrunk: Optional[ShrinkResult] = None
    #: Minimal diverging member chain (loop differentials only).
    shrunk_members: Optional[Tuple[str, ...]] = None
    #: Rollbacks the recovery side performed (recovery differentials).
    recovery_attempts: int = 0

    @property
    def summary(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        return (f"seed {self.seed}: {self.mode_a} vs {self.mode_b} "
                f"{status}" + ("" if self.ok
                               else f" ({'; '.join(self.divergences)})"))


def canonical(item: Any) -> str:
    """Stable digest of one sink record, ignoring wall-clock stamps.

    ``_born`` is the only legitimately run-dependent attribute (the
    source stamps emission wall-time for latency measurement); every
    other divergence is a real semantic difference.
    """
    if isinstance(item, dict):
        cleaned = sorted((k, repr(v)) for k, v in item.items()
                         if k != "_born")
        return "{" + ", ".join(f"{k}={v}" for k, v in cleaned) + "}"
    return repr(item)


def chain_testbed(seed: int,
                  config: Optional[DifferentialConfig] = None,
                  ) -> Tuple[Topology, Tuple[str, ...]]:
    """A seeded linear testbed: source → pure members → collecting sink.

    Returns the topology and the member names to fuse (the middle
    chain, optionally including the sink).  All specs carry
    ``operator_class``/``operator_args``, so operator factories can be
    rebuilt from the topology alone — which keeps the testbeds
    shrinkable.
    """
    config = config or DifferentialConfig()
    rng = random.Random(seed)
    count = rng.randint(config.min_members, config.max_members)
    specs = [OperatorSpec(
        name="source", service_time=0.0002,
        operator_class="repro.operators.source_sink.GeneratorSource",
        operator_args={"seed": 1 + seed % 10_000},
    )]
    members: List[str] = []
    for index in range(count):
        class_path, args_of, selectivity = _MEMBER_TEMPLATES[
            rng.randrange(len(_MEMBER_TEMPLATES))]
        name = f"op{index}"
        members.append(name)
        specs.append(OperatorSpec(
            name=name, service_time=0.0002,
            output_selectivity=selectivity,
            operator_class=class_path,
            operator_args=args_of(rng),
        ))
    specs.append(OperatorSpec(
        name="sink", service_time=0.0001,
        operator_class="repro.operators.source_sink.CollectingSink",
        operator_args={"capacity": 100_000},
    ))
    if rng.random() < 0.5:
        members.append("sink")  # exercise fused (loop-held) sinks too
    names = [spec.name for spec in specs]
    edges = [Edge(a, b) for a, b in zip(names, names[1:])]
    return Topology(specs, edges, name=f"chain-{seed}"), tuple(members)


def topology_factories(topology: Topology):
    """Operator factories rebuilt purely from the topology's specs."""
    return {
        spec.name: (lambda path=spec.operator_class,
                    args=spec.operator_args: instantiate_operator(path, args))
        for spec in topology.operators
        if spec.operator_class
    }


def run_capture(
    topology: Topology,
    runtime: RuntimeConfig,
    fusion_plans: Sequence[FusionPlan] = (),
    factories: Optional[Mapping[str, Any]] = None,
    config: Optional[DifferentialConfig] = None,
    expect_execution: Optional[str] = None,
) -> Dict[str, List[str]]:
    """Run a topology to source exhaustion; canonical outputs per sink.

    The system runs until the source emits ``max_items`` and every
    actor behind it has retired in the plan's order, so captures are
    complete rather than windowed (a run that does not get there
    within ``quiet_timeout`` is an error, not a shorter capture).
    ``expect_execution`` asserts how fused vertices actually executed
    (``"loop"``/``"meta"``).
    """
    config = config or DifferentialConfig()
    if factories is None:
        factories = topology_factories(topology)
    system = ActorSystem.build(topology, factories, config=runtime,
                               fusion_plans=fusion_plans)
    if expect_execution is not None:
        wrong = {name: mode
                 for name, mode in system.fusion_executions.items()
                 if mode != expect_execution}
        if wrong:
            system.stop()
            raise AssertionError(
                f"expected every fused vertex to execute as "
                f"{expect_execution!r}, got {wrong}")
    system.start()
    return finish_capture(system, config)


def finish_capture(system: ActorSystem, config: DifferentialConfig,
                   ) -> Dict[str, List[str]]:
    """Run a started system to the end of its finite job and stop it;
    canonical outputs per sink."""
    try:
        outcome = system.drain(config.quiet_timeout)
    finally:
        system.stop()
    if outcome != "completed":
        raise RuntimeError(
            f"run of {system.topology.name!r} ended {outcome!r}: "
            f"{system.failure_reason}")
    return _collect_sinks(system)


def _collect_sinks(system: ActorSystem) -> Dict[str, List[str]]:
    """Canonicalized contents of every collecting sink in a system.

    Sinks may live as standalone actors, as members of a meta-operator
    actor, or inside a loop-compiled operator; all three are scanned.
    """
    outputs: Dict[str, List[str]] = {}

    def record(name: str, operator: Any) -> None:
        while hasattr(operator, "inner"):  # FaultyOperator wrappers
            operator = operator.inner
        if isinstance(operator, CollectingSink):
            outputs[name] = [canonical(item) for item in operator.items]

    for actor in system.actors:
        operator = getattr(actor, "operator", None)
        if operator is not None:
            record(actor.vertex, operator)
            members = getattr(operator, "members", None)  # LoopOperator
            if members:
                for name, member in members.items():
                    record(name, member)
        members = getattr(actor, "members", None)  # MetaOperatorActor
        if isinstance(members, dict):
            for name, member in members.items():
                record(name, member)
    return outputs


def _compare(seed: int, mode_a: str, mode_b: str,
             a: Mapping[str, List[str]], b: Mapping[str, List[str]],
             ) -> List[str]:
    divergences: List[str] = []
    for name in sorted(set(a) | set(b)):
        left = a.get(name)
        right = b.get(name)
        if left is None or right is None:
            divergences.append(
                f"sink {name!r} missing on one side "
                f"({mode_a}: {left is not None}, {mode_b}: {right is not None})")
            continue
        if len(left) != len(right):
            divergences.append(
                f"sink {name!r}: {len(left)} vs {len(right)} items")
            continue
        for index, (x, y) in enumerate(zip(left, right)):
            if x != y:
                divergences.append(
                    f"sink {name!r} item {index}: {x} != {y}")
                break
    return divergences


def _runtime(config: DifferentialConfig, seed: int, **overrides: Any,
             ) -> RuntimeConfig:
    return RuntimeConfig(
        mailbox_capacity=config.mailbox_capacity,
        max_items=config.items,
        seed=seed,
        watchdog=False,
        **overrides,
    )


# ----------------------------------------------------------------------
# seeded differential checks


def check_loop_seed(seed: int,
                    config: Optional[DifferentialConfig] = None,
                    fault_plan: Optional[FaultPlan] = None,
                    ) -> DifferentialReport:
    """Meta-actor vs loop-compiled execution of one seeded chain."""
    config = config or DifferentialConfig()
    topology, members = chain_testbed(seed, config)
    return _loop_differential(seed, topology, members, config, fault_plan)


def _loop_differential(seed: int, topology: Topology,
                       members: Sequence[str],
                       config: DifferentialConfig,
                       fault_plan: Optional[FaultPlan],
                       ) -> DifferentialReport:
    result = apply_fusion(topology, list(members))
    plans = (result.plan,)

    def capture(mode: str) -> Dict[str, List[str]]:
        runtime = _runtime(config, seed, fusion_mode=mode,
                           fault_plan=fault_plan)
        return run_capture(result.fused, runtime, fusion_plans=plans,
                           factories=topology_factories(topology),
                           config=config,
                           expect_execution=mode if fault_plan is None
                           else None)

    divergences = _compare(seed, "meta", "loop",
                           capture("meta"), capture("loop"))
    shrunk_members: Optional[Tuple[str, ...]] = None
    if divergences and config.shrink_failures and len(members) > 1:
        shrunk_members = _shrink_chain(seed, topology, members, config,
                                       fault_plan)
    return DifferentialReport(
        seed=seed, mode_a="meta", mode_b="loop",
        ok=not divergences, divergences=tuple(divergences),
        shrunk_members=shrunk_members,
    )


def _shrink_chain(seed: int, topology: Topology, members: Sequence[str],
                  config: DifferentialConfig,
                  fault_plan: Optional[FaultPlan],
                  ) -> Tuple[str, ...]:
    """Greedily drop chain members while the divergence persists."""
    quiet = DifferentialConfig(
        items=config.items, mailbox_capacity=config.mailbox_capacity,
        batch_size=config.batch_size,
        quiet_timeout=config.quiet_timeout,
        shrink_failures=False,
    )

    def diverges(kept: Sequence[str]) -> bool:
        if len(kept) < 1:
            return False
        try:
            report = _loop_differential(seed, topology, kept, quiet,
                                        fault_plan)
        except Exception:
            return False  # an invalid sub-chain is not a reproduction
        return not report.ok

    current = list(members)
    progress = True
    while progress and len(current) > 1:
        progress = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if diverges(candidate):
                current = candidate
                progress = True
                break
    return tuple(current)


def chaos_fault_plan(topology: Topology, members: Sequence[str],
                     seed: int, poisons: int = 2) -> FaultPlan:
    """A deterministic poison-only fault plan avoiding fused members.

    Poison faults are the chaos class that stays deterministic across
    execution modes: supervision resumes the vertex and the poisoned
    item index is counted in *operator invocations*, which batching and
    loop compilation both preserve.  Fused members are excluded — the
    runtime (correctly) refuses to loop-compile fault-wrapped members,
    which would turn the differential into meta-vs-meta.
    """
    rng = random.Random(seed * 7919 + 17)
    member_set = set(members)
    candidates = [name for name in topology.names
                  if name not in member_set]
    faults = []
    for _ in range(poisons):
        if not candidates:
            break
        vertex = candidates[rng.randrange(len(candidates))]
        faults.append(PoisonFault(vertex=vertex,
                                  item_index=rng.randrange(10, 60)))
    return FaultPlan(seed=seed, poisons=tuple(faults))


def check_loop_chaos_seed(seed: int,
                          config: Optional[DifferentialConfig] = None,
                          ) -> DifferentialReport:
    """Meta vs loop under a deterministic poison fault plan."""
    config = config or DifferentialConfig()
    topology, members = chain_testbed(seed, config)
    plan = chaos_fault_plan(topology, members, seed)
    return _loop_differential(seed, topology, members, config, plan)


def check_sharded_seed(seed: int,
                       config: Optional[DifferentialConfig] = None,
                       shards: int = 2,
                       ) -> DifferentialReport:
    """Threaded vs multi-process execution of one seeded chain.

    The sharded backend is transparent by the same contract as batching
    and loop fusion: same tuples, same values, same order.  Operators
    are deliberately placed round-robin across shards (instead of the
    utilization-driven default, which would co-locate a cheap chain on
    one shard) so *every* edge of the testbed crosses a process
    boundary — channels, Batch envelopes, the EOS cascade, key routing
    all sit on the compared path.  The chain is linear and every
    channel is SPSC, so order must survive; any reordering, loss or
    duplication is a real defect, reported verbatim alongside shard
    hygiene (worker leaks, crashed channels, drain failures).
    """
    from repro.runtime.procshard import ProcShardConfig, ProcShardSystem

    config = config or DifferentialConfig()
    topology, _members = chain_testbed(seed, config)
    factories = topology_factories(topology)

    threaded = run_capture(topology, _runtime(config, seed),
                           factories=factories, config=config)

    placement = {spec.name: (index % shards,)
                 for index, spec in enumerate(topology.operators)}
    proc_config = ProcShardConfig(
        shards=shards,
        mailbox_capacity=config.mailbox_capacity,
        channel_capacity=config.mailbox_capacity,
        max_items=config.items,
        seed=seed,
        batch_size=config.batch_size,
        drain_timeout=config.quiet_timeout,
    )
    system = ProcShardSystem.build(topology, factories, config=proc_config,
                                   placement=placement)
    result = system.run_to_exhaustion()
    sharded = {name: [canonical(item) for item in items]
               for name, items in result.sink_items.items()}

    divergences = _compare(seed, "threaded", "process", threaded, sharded)
    if result.failure:
        divergences.append(f"shard failure: {result.failure}")
    if result.leaked_workers:
        divergences.append(
            f"leaked workers: {', '.join(result.leaked_workers)}")
    if result.leaked_actors:
        divergences.append(
            f"leaked actors: {', '.join(result.leaked_actors)}")
    if result.crashed_channels:
        divergences.append(
            f"crashed channels: {result.crashed_channels}")
    if result.dropped_messages:
        divergences.append(
            f"{result.dropped_messages} dropped messages")
    return DifferentialReport(
        seed=seed, mode_a="threaded", mode_b="process",
        ok=not divergences, divergences=tuple(divergences),
    )


def check_batching_seed(seed: int,
                        config: Optional[DifferentialConfig] = None,
                        batch_size: Optional[int] = None,
                        source_rate: Optional[float] = None,
                        ) -> DifferentialReport:
    """Unbatched vs batched mailboxes on one seeded (unfused) chain.

    Closed loop (the default) almost every flush is a full one; a paced
    ``source_rate`` on the batched side makes nearly every batch leave
    partial (the work-conserving flush of an idle sender), which must
    produce the same bytes.
    """
    config = config or DifferentialConfig()
    if batch_size is None:
        batch_size = config.batch_size
    topology, _ = chain_testbed(seed, config)

    def diverges(candidate: Topology) -> bool:
        try:
            return bool(_batching_divergences(seed, candidate, config,
                                              batch_size, source_rate))
        except Exception:
            return False

    divergences = _batching_divergences(seed, topology, config, batch_size,
                                        source_rate)
    shrunk: Optional[ShrinkResult] = None
    if divergences and config.shrink_failures:
        shrunk = shrink(topology, diverges)
    return DifferentialReport(
        seed=seed, mode_a="unbatched", mode_b=f"batch={batch_size}",
        ok=not divergences, divergences=tuple(divergences), shrunk=shrunk,
    )


def _batching_divergences(seed: int, topology: Topology,
                          config: DifferentialConfig,
                          batch_size: int,
                          source_rate: Optional[float] = None) -> List[str]:
    base = run_capture(topology, _runtime(config, seed), config=config)
    batched = run_capture(
        topology,
        _runtime(config, seed, batch_size=batch_size,
                 source_rate=source_rate),
        config=config,
    )
    return _compare(seed, "unbatched", f"batch={batch_size}", base, batched)


# ----------------------------------------------------------------------
# effectively-once recovery differentials


def recovery_testbed(seed: int,
                     config: Optional[DifferentialConfig] = None,
                     ) -> Tuple[Topology, Tuple[str, ...]]:
    """A chain testbed whose sink stays a standalone actor.

    The recovery differentials crash the sink, and a fault-wrapped
    member is (correctly) refused by the loop compiler — fusing the
    sink would silently turn the loop-mode differential into meta vs
    meta.  Keeping the sink standalone also makes the crash site the
    actor with the most accumulated state to lose.
    """
    topology, members = chain_testbed(seed, config)
    return topology, tuple(name for name in members if name != "sink")


def recovery_fault_plan(topology: Topology, seed: int,
                        crashes: int = 2,
                        vertex: str = "sink") -> FaultPlan:
    """A deterministic crash-only plan aimed at one vertex (the sink).

    Crashes are the fault class recovery exists for: supervision's
    Restart directive becomes a rollback to the last complete epoch.
    Sources are never targeted — a crashed source resumes by *skipping*
    the item, which legitimately changes the stream.  Indices are drawn
    low so they land within the sink's item budget even on chains whose
    compound selectivity is far below one.
    """
    rng = random.Random(seed * 6271 + 29)
    indices: set = set()
    while len(indices) < crashes:
        indices.add(rng.randrange(4, 40))
    return FaultPlan(seed=seed, crashes=tuple(
        CrashFault(vertex=vertex, item_index=index)
        for index in sorted(indices)))


def check_recovery_seed(seed: int,
                        config: Optional[DifferentialConfig] = None,
                        fusion_mode: str = "meta",
                        batch_size: int = 1,
                        checkpoint: Optional[CheckpointConfig] = None,
                        ) -> DifferentialReport:
    """Fault-free vs crash-and-recover execution of one seeded chain.

    The decisive effectively-once oracle: a run with injected sink
    crashes, rolled back by :func:`repro.runtime.checkpoint.
    run_recoverable` to the last complete epoch and replayed from the
    recorded source offset, must produce sink output **bit-equal** to
    the fault-free run — under both fused execution modes and both
    unbatched and batched mailboxes.
    """
    config = config or DifferentialConfig()
    if checkpoint is None:
        checkpoint = CheckpointConfig(interval_items=40)
    topology, members = recovery_testbed(seed, config)
    divergences, attempts = _recovery_divergences(
        seed, topology, members, config, fusion_mode, batch_size,
        checkpoint)
    shrunk_members: Optional[Tuple[str, ...]] = None
    if divergences and config.shrink_failures and len(members) > 1:
        shrunk_members = _shrink_recovery_chain(
            seed, topology, members, config, fusion_mode, batch_size,
            checkpoint)
    return DifferentialReport(
        seed=seed, mode_a=fusion_mode,
        mode_b=f"{fusion_mode}+recovery(batch={batch_size})",
        ok=not divergences, divergences=tuple(divergences),
        shrunk_members=shrunk_members,
        recovery_attempts=attempts,
    )


def _recovery_divergences(seed: int, topology: Topology,
                          members: Sequence[str],
                          config: DifferentialConfig,
                          fusion_mode: str, batch_size: int,
                          checkpoint: CheckpointConfig,
                          ) -> Tuple[List[str], int]:
    result = apply_fusion(topology, list(members))
    plans = (result.plan,)
    factories = topology_factories(topology)
    overrides: Dict[str, Any] = {"fusion_mode": fusion_mode}
    if batch_size > 1:
        overrides["batch_size"] = batch_size
    baseline = run_capture(
        result.fused, _runtime(config, seed, **overrides),
        fusion_plans=plans, factories=factories, config=config,
        expect_execution=fusion_mode)
    plan = recovery_fault_plan(topology, seed)
    outcome = run_recoverable(
        result.fused, factories,
        runtime=_runtime(config, seed, fault_plan=plan, **overrides),
        fusion_plans=plans, checkpoint=checkpoint,
        timeout=config.quiet_timeout)
    label = f"{fusion_mode}+recovery(batch={batch_size})"
    if outcome.outcome != "completed":
        return ([f"recovery run ended {outcome.outcome!r} after "
                 f"{outcome.attempts} rollback(s)"], outcome.attempts)
    recovered = _collect_sinks(outcome.system)
    divergences = _compare(seed, fusion_mode, label, baseline, recovered)
    return divergences, outcome.attempts


def _shrink_recovery_chain(seed: int, topology: Topology,
                           members: Sequence[str],
                           config: DifferentialConfig,
                           fusion_mode: str, batch_size: int,
                           checkpoint: CheckpointConfig,
                           ) -> Tuple[str, ...]:
    """Greedily drop chain members while the recovery divergence holds."""

    def diverges(kept: Sequence[str]) -> bool:
        if len(kept) < 1:
            return False
        try:
            divergences, _ = _recovery_divergences(
                seed, topology, kept, config, fusion_mode, batch_size,
                checkpoint)
        except Exception:
            return False  # an invalid sub-chain is not a reproduction
        return bool(divergences)

    current = list(members)
    progress = True
    while progress and len(current) > 1:
        progress = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if diverges(candidate):
                current = candidate
                progress = True
                break
    return tuple(current)
