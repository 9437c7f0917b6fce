"""SS2Py code generation: from an optimized topology to runnable code.

The original tool generates Akka code from the abstract topology: one
actor per standard operator, emitter/replicas/collector ensembles for
parallelized operators, and a single actor running Algorithm 4 for each
fused sub-graph (Section 4.2).  SS2Py generates the equivalent program
against :mod:`repro.runtime`: a standalone Python script that rebuilds
the topology, instantiates every operator from its recorded class and
constructor arguments, wires the actor system and runs it, reporting
the measured throughput next to the model's prediction — the "console
opened by the SpinStreams GUI" feedback loop.
"""

from __future__ import annotations

import io

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.fusion import FusionPlan, flatten_fusion_plans
from repro.core.graph import (
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)


@dataclass(frozen=True)
class CodegenConfig:
    """Options of the generated program."""

    duration: float = 5.0
    warmup: Optional[float] = None
    mailbox_capacity: int = 64
    pad_service_times: bool = True
    seed: int = 1
    #: Embed the static-analysis report as a comment header, so the
    #: generated program carries its own pre-deployment verdict.
    include_lint: bool = True
    #: Fused-vertex execution backend passed to the generated
    #: ``RuntimeConfig``: ``"meta"``, ``"loop"`` or ``"auto"``.  With
    #: ``"auto"``/``"loop"`` the generated program also embeds the
    #: compiled-loop sources as documentation comments (the runtime
    #: recompiles them via :mod:`repro.codegen.fuseloop`).
    fusion_mode: str = "meta"
    #: Default mailbox batching of the generated run (tuples per
    #: message; 1 = unbatched) and its partial-batch flush deadline.
    batch_size: int = 1
    batch_flush_timeout: float = 0.05


def _literal(value: object) -> str:
    """A safe Python literal for the supported argument types."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return repr(value)
    if isinstance(value, dict):
        # Key distributions: thousands of str -> float items, for which
        # repr() of the dict is the text the recursion below would build.
        if (type(value) is dict and set(map(type, value)) <= {str}
                and set(map(type, value.values())) <= {float}):
            return repr(value)
        items = ", ".join(
            f"{_literal(k)}: {_literal(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        items = ", ".join(_literal(v) for v in value)
        if isinstance(value, tuple):
            return "(" + items + ("," if len(value) == 1 else "") + ")"
        return "[" + items + "]"
    raise TopologyError(f"cannot serialize value of type {type(value).__name__}")


def _keys_code(keys: Optional[KeyDistribution]) -> str:
    if keys is None:
        return "None"
    return f"KeyDistribution({_literal(dict(keys.frequencies))})"


def _spec_code(spec: OperatorSpec) -> str:
    parts = [
        f"name={spec.name!r}",
        f"service_time={spec.service_time!r}",
        f"state=StateKind.{spec.state.name}",
    ]
    if spec.input_selectivity != 1.0:
        parts.append(f"input_selectivity={spec.input_selectivity!r}")
    if spec.output_selectivity != 1.0:
        parts.append(f"output_selectivity={spec.output_selectivity!r}")
    if spec.replication != 1:
        parts.append(f"replication={spec.replication}")
    if spec.keys is not None:
        parts.append(f"keys={_keys_code(spec.keys)}")
    if spec.operator_class:
        parts.append(f"operator_class={spec.operator_class!r}")
    if spec.operator_args:
        parts.append(f"operator_args={_literal(dict(spec.operator_args))}")
    return "OperatorSpec(" + ", ".join(parts) + ")"


def _edge_code(edge: Edge) -> str:
    capacity = (f", capacity={edge.capacity!r}"
                if edge.capacity is not None else "")
    batch = ""
    if edge.batch is not None:
        batch = (f", batch=BatchConfig(size={edge.batch.size}, "
                 f"flush_timeout={edge.batch.flush_timeout!r})")
    return (f"Edge({edge.source!r}, {edge.target!r}, "
            f"{edge.probability!r}{capacity}{batch})")


def _lint_header(topology: Topology) -> List[str]:
    """Comment lines with the lint report; never fails codegen."""
    try:
        from repro.analysis.lint import lint_topology

        return lint_topology(topology).header_lines()
    except Exception as exc:  # pragma: no cover - defensive
        return [f"Static checks (spinstreams lint): unavailable ({exc})"]


def _plan_code(plan: FusionPlan) -> str:
    edges = ", ".join(_edge_code(e) for e in plan.member_edges)
    internal = ", ".join(_edge_code(e) for e in plan.internal_edges)
    exits = _literal(dict(plan.exit_rates))
    return (
        "FusionPlan("
        f"members={plan.members!r}, "
        f"front_end={plan.front_end!r}, "
        f"internal_edges=({internal}{',' if plan.internal_edges else ''}), "
        f"member_edges=({edges}{',' if plan.member_edges else ''}), "
        f"service_time={plan.service_time!r}, "
        f"exit_rates={exits}, "
        f"fused_name={plan.fused_name!r})"
    )


def _factory_code(name: str, spec: OperatorSpec, pad: bool,
                  is_source: bool) -> str:
    if not spec.operator_class:
        raise TopologyError(
            f"operator {name!r} has no operator_class; cannot generate code"
        )
    build = (f"instantiate_operator({spec.operator_class!r}, "
             f"{_literal(dict(spec.operator_args))})")
    if pad and not is_source:
        build = f"PaddedOperator({build}, {spec.service_time!r})"
    return f"        {name!r}: lambda: {build},"


def generate_code(
    topology: Topology,
    original: Optional[Topology] = None,
    fusion_plans: Sequence[FusionPlan] = (),
    config: Optional[CodegenConfig] = None,
) -> str:
    """Generate a standalone Python program executing ``topology``.

    ``original`` supplies the member specs of fused vertices (fused
    topologies no longer carry them); required whenever
    ``fusion_plans`` is non-empty.  Plans that fuse fused vertices again
    are emitted flat, one per fused vertex of ``topology`` (see
    :func:`~repro.core.fusion.flatten_fusion_plans`).
    """
    config = config or CodegenConfig()
    if fusion_plans and original is None:
        raise TopologyError(
            "generating code for a fused topology requires the original "
            "topology (member operator classes live there)"
        )
    plans = {plan.fused_name: plan for plan in (
        flatten_fusion_plans(fusion_plans, original)
        if original is not None else ())}

    source = topology.source
    out = io.StringIO()
    write = out.write
    write('#!/usr/bin/env python3\n')
    write(f'"""Generated by SpinStreams (SS2Py) from topology '
          f'{topology.name!r}.\n\nRun with --duration SECONDS to control '
          f'the measurement window.\n"""\n')
    if config.include_lint:
        for line in _lint_header(topology):
            write(f"# {line}\n" if line else "#\n")
    write("\nimport argparse\n\n")
    write("from repro.core.fusion import FusionPlan\n")
    write("from repro.core.graph import (\n"
          "    BatchConfig, Edge, KeyDistribution, OperatorSpec, StateKind,\n"
          "    Topology,\n"
          ")\n")
    write("from repro.core.steady_state import analyze\n")
    write("from repro.operators.base import instantiate_operator\n")
    write("from repro.runtime.synthetic import PaddedOperator\n")
    write("from repro.runtime.system import RuntimeConfig, run_topology\n\n\n")

    write("TOPOLOGY = Topology(\n    operators=[\n")
    for spec in topology.operators:
        write(f"        {_spec_code(spec)},\n")
    write("    ],\n    edges=[\n")
    for edge in topology.edges:
        write(f"        {_edge_code(edge)},\n")
    write(f"    ],\n    name={topology.name!r},\n)\n\n")

    write("FUSION_PLANS = [\n")
    for plan in plans.values():
        write(f"    {_plan_code(plan)},\n")
    write("]\n\n\n")

    if config.fusion_mode != "meta" and plans:
        # Document the loop each eligible chain compiles to; the runtime
        # regenerates and executes the same source via fuseloop.
        from repro.codegen.fuseloop import generate_loop_source, loop_eligibility

        assert original is not None
        for plan in plans.values():
            verdict = loop_eligibility(plan, original)
            if verdict.eligible:
                write(f"# Loop-compiled form of {plan.fused_name!r} "
                      "(fusion-to-loop codegen):\n")
                for line in generate_loop_source(plan, verdict.chain).splitlines():
                    write(f"# {line}\n" if line else "#\n")
            else:
                write(f"# {plan.fused_name!r} stays on the meta-operator: "
                      f"{'; '.join(verdict.reasons)}\n")
            write("\n")
        write("\n")

    write("def make_factories():\n")
    write('    """Fresh operator instances, one per replica."""\n')
    write("    return {\n")
    for spec in topology.operators:
        if spec.name in plans:
            continue  # fused vertices are built from their members
        write(_factory_code(spec.name, spec, config.pad_service_times,
                            spec.name == source) + "\n")
    for plan in plans.values():
        assert original is not None
        for member in plan.members:
            member_spec = original.operator(member)
            write(_factory_code(member, member_spec,
                                config.pad_service_times, False) + "\n")
    write("    }\n\n\n")

    source_rate = topology.operator(source).service_rate
    warmup = "None" if config.warmup is None else repr(config.warmup)
    write("def main():\n")
    write("    parser = argparse.ArgumentParser(description=__doc__)\n")
    write(f"    parser.add_argument('--duration', type=float, "
          f"default={config.duration!r})\n")
    write("    args = parser.parse_args()\n")
    write("    predicted = analyze(TOPOLOGY)\n")
    write("    result = run_topology(\n")
    write("        TOPOLOGY,\n")
    write("        make_factories(),\n")
    write("        duration=args.duration,\n")
    write(f"        warmup={warmup},\n")
    write("        config=RuntimeConfig(\n")
    write(f"            mailbox_capacity={config.mailbox_capacity},\n")
    write(f"            source_rate={source_rate!r},\n")
    write(f"            seed={config.seed},\n")
    if config.fusion_mode != "meta":
        write(f"            fusion_mode={config.fusion_mode!r},\n")
    if config.batch_size != 1:
        write(f"            batch_size={config.batch_size},\n")
        write(f"            batch_flush_timeout="
              f"{config.batch_flush_timeout!r},\n")
    write("        ),\n")
    write("        fusion_plans=FUSION_PLANS,\n")
    write("    )\n")
    write("    print(f'predicted throughput: "
          "{predicted.throughput:,.1f} items/sec')\n")
    write("    print(f'measured throughput:  "
          "{result.throughput:,.1f} items/sec')\n")
    write("    return result\n\n\n")
    write("if __name__ == '__main__':\n")
    write("    main()\n")
    return out.getvalue()


def write_code(path: str, topology: Topology,
               original: Optional[Topology] = None,
               fusion_plans: Sequence[FusionPlan] = (),
               config: Optional[CodegenConfig] = None) -> None:
    """Generate code and write it to ``path``."""
    code = generate_code(topology, original=original,
                         fusion_plans=fusion_plans, config=config)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(code)
