"""The operator-code analyzer: state inference and the SS2xx corpus."""

import importlib
import inspect
import pkgutil

import pytest

from repro.analysis.lint import lint_topology
from repro.analysis.opcode import (
    OPCODE_RULES,
    analyze_class_path,
    analyze_operator_class,
    impure_operators,
    state_rank,
    try_analyze,
    verify_code,
)
from repro.core.autofusion import auto_fuse
from repro.core.graph import (
    META_OPERATOR_CLASS,
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
)
from repro.operators.base import Operator
from repro.topology import generate_testbed

from tests.analysis.fixtures import opfixtures as fx


def _topology(work_class=None, work_state=StateKind.STATELESS):
    """source -> work -> sink with an optional class on ``work``."""
    keys = (KeyDistribution.uniform(4)
            if work_state is StateKind.PARTITIONED else None)
    return Topology(
        operators=[
            OperatorSpec("source", service_time=0.001),
            OperatorSpec("work", service_time=0.0005, state=work_state,
                         keys=keys, operator_class=work_class),
            OperatorSpec("sink", service_time=0.0002,
                         output_selectivity=0.0),
        ],
        edges=[Edge("source", "work"), Edge("work", "sink")],
        name="opcode-fixture",
    )


class TestStateInference:
    def test_counter_write_is_stateful(self):
        facts = analyze_class_path(fx.SNEAKY_COUNTER_PATH)
        assert facts.inferred is StateKind.STATEFUL
        assert facts.mismatch
        assert any("self.total" in w for w in facts.writes)

    def test_local_accumulator_stays_stateless(self):
        facts = analyze_class_path(fx.HONEST_MAP_PATH)
        assert facts.inferred is StateKind.STATELESS
        assert not facts.writes

    def test_alias_and_helper_indirection_is_caught(self):
        facts = analyze_class_path(fx.ALIASED_BUFFER_PATH)
        assert facts.inferred is StateKind.STATEFUL
        assert any("append" in w for w in facts.writes)

    def test_keyed_writer_is_partitioned(self):
        facts = analyze_class_path(fx.FIELD_KEY_PATH)
        assert facts.inferred is StateKind.PARTITIONED
        assert facts.keyed

    def test_rank_ordering(self):
        assert (state_rank(StateKind.STATELESS)
                < state_rank(StateKind.PARTITIONED)
                < state_rank(StateKind.STATEFUL))

    def test_rejects_non_operator_classes(self):
        with pytest.raises(TypeError):
            analyze_operator_class(dict)

    def test_try_analyze_swallows_bad_paths(self):
        assert try_analyze(fx.MISSING_CLASS_PATH) is None
        assert try_analyze(None) is None


CORPUS = [
    ("SS201", fx.SNEAKY_COUNTER_PATH, fx.HONEST_MAP_PATH,
     StateKind.STATELESS),
    ("SS201", fx.ALIASED_BUFFER_PATH, fx.HONEST_MAP_PATH,
     StateKind.STATELESS),
    ("SS202", fx.OVER_DECLARED_PATH, fx.GENUINE_ACCUMULATOR_PATH,
     StateKind.STATEFUL),
    ("SS203", fx.SHARED_BUFFER_PATH, fx.IMMUTABLE_DEFAULTS_PATH,
     None),
    ("SS204", fx.JITTER_PATH, fx.SEEDED_JITTER_PATH,
     StateKind.STATELESS),
    ("SS205", fx.RANDOM_KEY_PATH, fx.FIELD_KEY_PATH,
     StateKind.PARTITIONED),
    ("SS206", fx.PRINTING_PATH, fx.QUIET_PATH, StateKind.STATELESS),
    ("SS207", fx.MISSING_CLASS_PATH, fx.HONEST_MAP_PATH,
     StateKind.STATELESS),
]


@pytest.mark.parametrize("rule,trigger,clean,declared", CORPUS,
                         ids=[f"{r}-{t.rsplit('.', 1)[-1]}"
                              for r, t, _, _ in CORPUS])
class TestOpcodeCorpus:
    def _declared(self, path, declared):
        if declared is not None:
            return declared
        # SS203: use the class's own declaration (the rule is
        # independent of the declared kind).
        from repro.operators.base import load_operator_class

        return load_operator_class(path).state

    def test_trigger_fires_the_rule(self, rule, trigger, clean, declared):
        report = verify_code(
            _topology(trigger, self._declared(trigger, declared)))
        assert report.has(rule), (
            f"{trigger} did not fire {rule}; got {report.rules()}")

    def test_clean_near_miss_does_not_fire(self, rule, trigger, clean,
                                           declared):
        report = verify_code(
            _topology(clean, self._declared(clean, declared)))
        assert not report.has(rule), (
            f"{clean} falsely fired {rule}: {report.render()}")


def test_corpus_covers_every_opcode_rule():
    assert {entry[0] for entry in CORPUS} == set(OPCODE_RULES)


def test_specs_without_classes_are_skipped():
    report = verify_code(_topology(None))
    assert report.clean


def test_fused_testbed_topologies_pass_the_tools_own_lint():
    # A fused vertex carries the meta-operator marker, not a class to
    # import: its members were analyzed before fusion.
    fused = [result.fused for result in map(auto_fuse, generate_testbed(50))
             if result.operators_removed]
    assert len(fused) >= 20
    for topology in fused:
        assert any(spec.operator_class == META_OPERATOR_CLASS
                   for spec in topology.operators)
        assert lint_topology(topology).ok, topology.name
        assert not lint_topology(topology, backend="process").has("SS207")


def test_over_declared_is_info_severity():
    report = verify_code(
        _topology(fx.OVER_DECLARED_PATH, StateKind.STATEFUL))
    assert report.has("SS202")
    assert report.exit_code == 0


def test_impure_operators_flags_nondet_and_io():
    topology = Topology(
        operators=[
            OperatorSpec("source", service_time=0.001),
            OperatorSpec("jitter", service_time=0.0005,
                         operator_class=fx.JITTER_PATH),
            OperatorSpec("printer", service_time=0.0005,
                         operator_class=fx.PRINTING_PATH),
            OperatorSpec("quiet", service_time=0.0005,
                         operator_class=fx.QUIET_PATH),
            OperatorSpec("sink", service_time=0.0002,
                         output_selectivity=0.0),
        ],
        edges=[Edge("source", "jitter"), Edge("jitter", "printer"),
               Edge("printer", "quiet"), Edge("quiet", "sink")],
        name="impurity",
    )
    assert impure_operators(topology) == frozenset({"jitter", "printer"})


def test_builtin_catalog_audits_clean():
    """Every shipped operator's declaration matches its code (and no
    built-in is impure) — the declared-vs-inferred regression gate."""
    import repro.operators as ops

    checked = 0
    for modinfo in pkgutil.iter_modules(ops.__path__):
        module = importlib.import_module(f"repro.operators.{modinfo.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (not issubclass(cls, Operator) or inspect.isabstract(cls)
                    or cls.__module__ != module.__name__):
                continue
            facts = analyze_operator_class(cls)
            assert not facts.mismatch, (
                f"{facts.class_path}: declared {facts.declared.value} but "
                f"inferred {facts.inferred.value} ({facts.evidence()})")
            assert facts.pure, (
                f"{facts.class_path}: impure built-in "
                f"({facts.nondeterministic + facts.io_calls})")
            assert not facts.mutable_class_attrs, (
                f"{facts.class_path}: shared mutable class attributes "
                f"{facts.mutable_class_attrs}")
            assert not facts.impure_key_of
            checked += 1
    assert checked >= 25  # the whole shipped catalog, not a subset
