"""Unit and integration tests for SS2Py code generation."""

import subprocess
import sys

import pytest

from repro.codegen.ss2py import (CodegenConfig, _literal, generate_code,
                                 write_code)
from repro.core.autofusion import auto_fuse
from repro.core.fission import eliminate_bottlenecks
from repro.core.fusion import apply_fusion
from repro.core.graph import (
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)
from repro.topology import generate_testbed


def executable_topology():
    return Topology(
        [
            OperatorSpec("src", 4e-3,
                         operator_class="repro.operators.source_sink."
                                        "GeneratorSource"),
            OperatorSpec("flt", 2e-3, output_selectivity=0.6,
                         operator_class="repro.operators.basic.Filter",
                         operator_args={"threshold": 0.4, "pass_rate": 0.6}),
            OperatorSpec("agg", 3e-3, state=StateKind.PARTITIONED,
                         keys=KeyDistribution.zipf(16, 1.1),
                         input_selectivity=5.0,
                         operator_class="repro.operators.aggregates."
                                        "KeyedWindowedAggregate",
                         operator_args={"length": 100, "slide": 5}),
            OperatorSpec("sink", 0.2e-3, output_selectivity=0.0,
                         operator_class="repro.operators.source_sink."
                                        "CountingSink"),
        ],
        [Edge("src", "flt"), Edge("flt", "agg"), Edge("agg", "sink")],
        name="codegen-test",
    )


class TestLiteral:
    def test_key_frequencies_render_as_item_by_item(self):
        frequencies = dict(KeyDistribution.zipf(50, 1.2).frequencies)
        frequencies["it's"] = 1e-300
        item_by_item = "{" + ", ".join(
            f"{key!r}: {value!r}" for key, value in frequencies.items()) + "}"
        assert _literal(frequencies) == item_by_item
        assert _literal({}) == "{}"

    def test_mixed_dicts_still_render(self):
        assert (_literal({"n": 3, "xs": (1.5,), "on": True, "none": None})
                == "{'n': 3, 'xs': (1.5,), 'on': True, 'none': None}")

    def test_unsupported_types_are_rejected(self):
        for value in ({"weights": {1.0, 2.0}}, {"a": 0.5, "b": object()},
                      {"a": 0.5, "b": 1j}):
            with pytest.raises(TopologyError, match="cannot serialize"):
                _literal(value)


class TestGeneration:
    def test_code_compiles(self):
        code = generate_code(executable_topology())
        compile(code, "<generated>", "exec")

    def test_topology_literal_reconstructs(self):
        code = generate_code(executable_topology())
        namespace = {}
        exec(compile(code, "<generated>", "exec"), namespace)
        topology = namespace["TOPOLOGY"]
        assert topology.names == executable_topology().names
        assert topology.operator("agg").state is StateKind.PARTITIONED
        assert len(topology.operator("agg").keys) == 16

    def test_factories_built_for_every_vertex(self):
        code = generate_code(executable_topology())
        namespace = {}
        exec(compile(code, "<generated>", "exec"), namespace)
        factories = namespace["make_factories"]()
        assert set(factories) == {"src", "flt", "agg", "sink"}
        from repro.operators.basic import Filter
        from repro.runtime.synthetic import PaddedOperator
        operator = factories["flt"]()
        assert isinstance(operator, PaddedOperator)
        assert isinstance(operator.inner, Filter)

    def test_source_not_padded(self):
        code = generate_code(executable_topology())
        namespace = {}
        exec(compile(code, "<generated>", "exec"), namespace)
        from repro.operators.source_sink import GeneratorSource
        source = namespace["make_factories"]()["src"]()
        assert isinstance(source, GeneratorSource)

    def test_padding_can_be_disabled(self):
        code = generate_code(executable_topology(),
                             config=CodegenConfig(pad_service_times=False))
        assert "PaddedOperator(instantiate_operator" not in code

    def test_missing_operator_class_rejected(self):
        topology = Topology(
            [OperatorSpec("src", 1e-3,
                          operator_class="repro.operators.source_sink."
                                         "GeneratorSource"),
             OperatorSpec("anon", 1e-3)],
            [Edge("src", "anon")],
        )
        with pytest.raises(TopologyError, match="no operator_class"):
            generate_code(topology)

    def test_fused_topology_requires_original(self):
        topology = executable_topology()
        fusion = apply_fusion(topology, ["flt", "agg"], "F")
        with pytest.raises(TopologyError, match="original"):
            generate_code(fusion.fused, fusion_plans=[fusion.plan])

    def test_fused_code_compiles_and_reconstructs_plan(self):
        topology = executable_topology()
        fusion = apply_fusion(topology, ["flt", "agg"], "F")
        code = generate_code(fusion.fused, original=topology,
                             fusion_plans=[fusion.plan])
        namespace = {}
        exec(compile(code, "<generated>", "exec"), namespace)
        plans = namespace["FUSION_PLANS"]
        assert len(plans) == 1
        assert plans[0].members == ("agg", "flt")
        assert plans[0].front_end == "flt"
        factories = namespace["make_factories"]()
        assert {"flt", "agg"} <= set(factories)
        assert "F" not in factories


class TestExecution:
    def test_generated_program_runs_and_reports(self, tmp_path):
        path = tmp_path / "generated.py"
        write_code(str(path), executable_topology(),
                   config=CodegenConfig(duration=0.8))
        completed = subprocess.run(
            [sys.executable, str(path), "--duration", "0.8"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "predicted throughput" in completed.stdout
        assert "measured throughput" in completed.stdout

    def test_generated_fused_program_runs(self, tmp_path):
        topology = executable_topology()
        fusion = apply_fusion(topology, ["flt", "agg"], "F")
        path = tmp_path / "generated_fused.py"
        write_code(str(path), fusion.fused, original=topology,
                   fusion_plans=[fusion.plan],
                   config=CodegenConfig(duration=0.8))
        completed = subprocess.run(
            [sys.executable, str(path), "--duration", "0.8"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "measured throughput" in completed.stdout


def _nested_fusion(seed, index):
    """A testbed topology whose auto-fusion fuses a fused vertex again."""
    fissioned = eliminate_bottlenecks(
        generate_testbed(50, seed=seed)[index]).optimized
    return fissioned, auto_fuse(fissioned)


class TestNestedFusionPlans:
    """``auto_fuse`` fuses fused vertices again; the program gets one
    flat plan per fused vertex, over the original operators."""

    @pytest.mark.parametrize("seed,index", [(7, 0), (1, 6), (2, 5)])
    def test_program_compiles_with_one_flat_plan_per_fused_vertex(
            self, seed, index):
        original, fused = _nested_fusion(seed, index)
        names = {plan.fused_name for plan in fused.plans}
        assert any(member in names
                   for plan in fused.plans for member in plan.members)
        code = generate_code(fused.fused, original=original,
                             fusion_plans=fused.plans)
        namespace = {}
        exec(compile(code, "<generated>", "exec"), namespace)
        plans = namespace["FUSION_PLANS"]
        vertices = set(namespace["TOPOLOGY"].names)
        assert {plan.fused_name for plan in plans} == names & vertices
        rank = {name: i
                for i, name in enumerate(original.topological_order())}
        for plan in plans:
            assert all(member in original for member in plan.members)
            assert ([rank[m] for m in plan.members]
                    == sorted(rank[m] for m in plan.members))
        assert set(namespace["make_factories"]()) == (
            (vertices - names)
            | {m for plan in plans for m in plan.members})

    def test_program_of_a_nested_plan_runs(self, tmp_path):
        original, fused = _nested_fusion(7, 0)
        path = tmp_path / "generated_nested.py"
        write_code(str(path), fused.fused, original=original,
                   fusion_plans=fused.plans,
                   config=CodegenConfig(duration=0.8))
        completed = subprocess.run(
            [sys.executable, str(path), "--duration", "0.8"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "measured throughput" in completed.stdout
