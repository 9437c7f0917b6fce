"""The deployment-safety analyzer: the SS3xx corpus and plan verifier.

Mirrors the SS1xx/SS2xx corpus style: every operator rule (SS301-305)
has trigger classes and a clean near-miss in ``deployfixtures``, every
plan rule (SS310-315) has a trigger and a near-miss built from XML
fixtures or in test code, and a property test pins that Algorithm 5's
random testbeds are deployable on every backend.
"""

import importlib
import inspect
import os
import pkgutil

import pytest

from repro.analysis.deploy import (
    DEPLOY_RULES,
    PLAN_RULES,
    analyze_deploy,
    analyze_deploy_path,
    deploy_errors,
    process_unsafe_operators,
    try_analyze_deploy,
    verify_deploy,
    verify_plan,
)
from repro.analysis.lint import BACKENDS, lint_topology
from repro.core.graph import (
    CheckpointConfig,
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
)
from repro.operators.base import Operator
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.system import RuntimeConfig
from repro.topology.random_gen import RandomTopologyGenerator

from tests.analysis.fixtures import deployfixtures as fx

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _topology(work_class=None, work_state=StateKind.STATELESS,
              source_class=None, checkpoint=None):
    """source -> work -> sink with an optional class on ``work``."""
    keys = (KeyDistribution.uniform(4)
            if work_state is StateKind.PARTITIONED else None)
    return Topology(
        operators=[
            OperatorSpec("source", service_time=0.001,
                         operator_class=source_class),
            OperatorSpec("work", service_time=0.0005, state=work_state,
                         keys=keys, operator_class=work_class),
            OperatorSpec("sink", service_time=0.0002,
                         output_selectivity=0.0),
        ],
        edges=[Edge("source", "work"), Edge("work", "sink")],
        name="deploy-fixture",
        checkpoint=checkpoint,
    )


class TestDeployFacts:
    def test_lambda_closure_is_not_process_safe(self):
        facts = analyze_deploy_path(fx.LAMBDA_CLOSURE_PATH)
        assert not facts.process_safe
        assert any("lambda" in e for e in facts.init_lambdas)

    def test_named_module_lambda_is_caught(self):
        facts = analyze_deploy_path(fx.NAMED_LAMBDA_PATH)
        assert not facts.process_safe
        assert any("SCALE_LAMBDA" in e for e in facts.init_lambdas)

    def test_nested_def_is_caught(self):
        facts = analyze_deploy_path(fx.NESTED_DEF_PATH)
        assert not facts.process_safe

    def test_module_function_default_is_safe(self):
        facts = analyze_deploy_path(fx.MODULE_FN_PATH)
        assert facts.process_safe

    def test_resources_are_not_process_safe(self):
        facts = analyze_deploy_path(fx.LOCK_HOLDER_PATH)
        assert not facts.process_safe
        assert len(facts.init_resources) == 2  # the lock and the file

    def test_iterator_without_hooks_is_not_replayable(self):
        facts = analyze_deploy_path(fx.ITERATOR_SOURCE_PATH)
        assert facts.init_iterators and not facts.replayable

    def test_materialized_source_is_replayable(self):
        facts = analyze_deploy_path(fx.MATERIALIZED_SOURCE_PATH)
        assert facts.replayable and facts.process_safe

    def test_local_class_is_unimportable(self):
        class Hidden(Operator):
            def operator_function(self, item):
                return [item]

        facts = analyze_deploy(Hidden)
        assert not facts.importable
        assert any("function body" in e for e in facts.import_evidence)

    def test_rejects_non_operator_classes(self):
        with pytest.raises(TypeError):
            analyze_deploy(dict)

    def test_try_analyze_swallows_bad_paths(self):
        assert try_analyze_deploy("no.such.module.Cls") is None
        assert try_analyze_deploy(None) is None


#: (rule, trigger path, clean near-miss path, declared state, verify
#: kwargs) — the operator-rule defect corpus.  The same near-miss must
#: stay clean under the exact configuration that fires the trigger.
_CKPT = CheckpointConfig(interval_items=50)
CORPUS = [
    ("SS301", fx.LAMBDA_CLOSURE_PATH, fx.MODULE_FN_PATH,
     StateKind.STATELESS, dict(backend="process")),
    ("SS301", fx.NAMED_LAMBDA_PATH, fx.MODULE_FN_PATH,
     StateKind.STATELESS, dict(backend="process")),
    ("SS301", fx.NESTED_DEF_PATH, fx.MODULE_FN_PATH,
     StateKind.STATELESS, dict(backend="process")),
    ("SS301", fx.LOCK_HOLDER_PATH, fx.PLAIN_STATE_PATH,
     StateKind.STATEFUL, dict(backend="process")),
    ("SS301", fx.ITERATOR_SOURCE_PATH, fx.MATERIALIZED_SOURCE_PATH,
     StateKind.STATEFUL, dict(backend="process")),
    ("SS302", fx.RESOURCE_NO_HOOKS_PATH, fx.RESOURCE_WITH_HOOKS_PATH,
     StateKind.STATEFUL, dict(backend="threaded", checkpoint=_CKPT)),
    ("SS302", fx.HALF_HOOKED_PATH, fx.RESOURCE_WITH_HOOKS_PATH,
     StateKind.STATEFUL, dict(backend="threaded", checkpoint=_CKPT)),
    ("SS303", fx.ITERATOR_SOURCE_PATH, fx.MATERIALIZED_SOURCE_PATH,
     StateKind.STATEFUL, dict(backend="threaded", checkpoint=_CKPT,
                              at_source=True)),
    ("SS304", fx.KEYLESS_PARTITIONED_PATH, fx.CLEAN_KEYED_PATH,
     StateKind.PARTITIONED, dict(backend="elastic")),
    ("SS304", fx.MONOLITHIC_KEYED_PATH, fx.CLEAN_KEYED_PATH,
     StateKind.PARTITIONED, dict(backend="elastic")),
    ("SS305", fx.GLOBAL_APPENDER_PATH, fx.LOCAL_SHADOWER_PATH,
     StateKind.STATELESS, dict(backend="process")),
    ("SS305", fx.GLOBAL_REBINDER_PATH, fx.LOCAL_SHADOWER_PATH,
     StateKind.STATELESS, dict(backend="process")),
]


def _verify(class_path, state, backend, checkpoint=None, at_source=False):
    if at_source:
        topology = _topology(source_class=class_path, checkpoint=checkpoint)
    else:
        topology = _topology(class_path, state, checkpoint=checkpoint)
    return verify_deploy(topology, backend=backend)


@pytest.mark.parametrize("rule,trigger,clean,state,kwargs", CORPUS,
                         ids=[f"{r}-{t.rsplit('.', 1)[-1]}"
                              for r, t, _, _, _ in CORPUS])
class TestDeployCorpus:
    def test_trigger_fires_the_rule(self, rule, trigger, clean, state,
                                    kwargs):
        report = _verify(trigger, state, **kwargs)
        assert report.has(rule), (
            f"{trigger} did not fire {rule}; got {report.rules()}")

    def test_clean_near_miss_does_not_fire(self, rule, trigger, clean,
                                           state, kwargs):
        report = _verify(clean, state, **kwargs)
        assert not report.has(rule), (
            f"{clean} falsely fired {rule}: {report.render()}")


def test_corpus_covers_every_deploy_rule():
    assert {entry[0] for entry in CORPUS} == set(DEPLOY_RULES)


class TestRuleActivation:
    """Rules only fire for backends whose contract they protect."""

    def test_threaded_without_checkpoint_has_no_preconditions(self):
        report = verify_deploy(_topology(fx.LAMBDA_CLOSURE_PATH),
                               backend="threaded")
        assert report.clean and report.passes == ("deploy",)

    def test_lambda_state_is_fine_when_staying_in_process(self):
        # SS301 is about the pickle boundary; the elastic backend is
        # thread-based and does not care.
        report = verify_deploy(_topology(fx.LAMBDA_CLOSURE_PATH),
                               backend="elastic")
        assert not report.has("SS301")

    def test_runtime_config_widens_the_rule_set(self):
        topology = _topology(fx.RESOURCE_NO_HOOKS_PATH, StateKind.STATEFUL)
        runtime = RuntimeConfig(checkpoint=_CKPT)
        assert verify_deploy(topology, backend="threaded").clean
        assert verify_deploy(topology, backend="threaded",
                             runtime=runtime).has("SS302")

    def test_deploy_errors_keeps_only_requested_rules(self):
        topology = _topology(fx.LOCK_HOLDER_PATH, StateKind.STATEFUL,
                             checkpoint=_CKPT)
        rules = {d.rule for d in deploy_errors(topology, ["SS301"])}
        assert rules == {"SS301"}

    def test_process_unsafe_operators_names_the_offender(self):
        topology = _topology(fx.LAMBDA_CLOSURE_PATH)
        assert process_unsafe_operators(topology) == frozenset({"work"})


class TestPlanRules:
    def test_ss310_elastic_with_checkpoint(self):
        topology = _topology(checkpoint=_CKPT)
        report = verify_plan(topology, backend="elastic")
        assert report.has("SS310")
        assert not verify_plan(topology, backend="threaded").has("SS310")

    def test_ss310_from_xml_fixture(self):
        report = lint_topology(_fixture("ss310_trigger.xml"),
                               backend="elastic", plan=True)
        assert report.has("SS310")
        clean = lint_topology(_fixture("ss310_clean.xml"),
                              backend="elastic", plan=True)
        assert not clean.has("SS310")

    def test_ss311_unknown_operator(self):
        report = verify_plan(
            _topology(), backend="process",
            placement={"source": (0,), "work": (0,), "sink": (0,),
                       "ghost": (1,)},
            shards=2)
        assert report.has("SS311")
        assert any(d.subject == "ghost" for d in report.by_rule("SS311"))

    def test_ss311_replica_count_mismatch(self):
        report = verify_plan(
            _topology(), backend="process",
            placement={"source": (0,), "work": (0, 1), "sink": (0,)},
            shards=2)
        assert report.has("SS311")

    def test_ss311_shard_out_of_range(self):
        report = verify_plan(
            _topology(), backend="process",
            placement={"source": (0,), "work": (5,), "sink": (0,)},
            shards=2)
        assert report.has("SS311")

    def test_ss311_missing_assignment(self):
        report = verify_plan(
            _topology(), backend="process",
            placement={"source": (0,), "work": (0,)}, shards=1)
        assert any(d.subject == "sink" for d in report.by_rule("SS311"))

    def test_ss311_valid_placement_is_clean(self):
        report = verify_plan(
            _topology(), backend="process",
            placement={"source": (0,), "work": (1,), "sink": (0,)},
            shards=2)
        assert report.clean

    def test_ss312_scattered_stateful_operator(self):
        topology = Topology(
            operators=[
                OperatorSpec("source", service_time=0.001),
                OperatorSpec("work", service_time=0.0005, replication=2,
                             state=StateKind.STATEFUL),
                OperatorSpec("sink", service_time=0.0002,
                             output_selectivity=0.0),
            ],
            edges=[Edge("source", "work"), Edge("work", "sink")],
            name="scatter",
        )
        scattered = verify_plan(
            topology, backend="process",
            placement={"source": (0,), "work": (0, 1), "sink": (0,)},
            shards=2)
        assert scattered.has("SS312")
        gathered = verify_plan(
            topology, backend="process",
            placement={"source": (0,), "work": (1, 1), "sink": (0,)},
            shards=2)
        assert not gathered.has("SS312")

    def test_ss312_sees_through_declared_stateless(self):
        # A provably-stateful class scattered over shards is flagged
        # even when the spec under-declares it.
        from tests.analysis.fixtures import opfixtures

        topology = Topology(
            operators=[
                OperatorSpec("source", service_time=0.001),
                OperatorSpec("work", service_time=0.0005, replication=2,
                             operator_class=opfixtures.SNEAKY_COUNTER_PATH),
                OperatorSpec("sink", service_time=0.0002,
                             output_selectivity=0.0),
            ],
            edges=[Edge("source", "work"), Edge("work", "sink")],
            name="sneaky-scatter",
        )
        report = verify_plan(
            topology, backend="process",
            placement={"source": (0,), "work": (0, 1), "sink": (0,)},
            shards=2)
        assert report.has("SS312")

    def test_ss313_edge_flush_beyond_budget(self):
        report = lint_topology(_fixture("ss313_trigger.xml"), plan=True)
        assert report.has("SS313")
        # The deadline is the busy-sender worst case: the flush is
        # work-conserving, a quiet stream strands nothing.
        (finding,) = [d for d in report.diagnostics if d.rule == "SS313"]
        assert "continuously busy" in finding.message
        assert "quiet stream" not in finding.message
        clean = lint_topology(_fixture("ss313_clean.xml"), plan=True)
        assert not clean.has("SS313")

    def test_ss313_global_batch_beyond_budget(self):
        topology = _topology().with_latency_budget(0.01)
        runtime = RuntimeConfig(batch_size=8, batch_flush_timeout=0.05)
        report = verify_plan(topology, runtime=runtime)
        assert report.has("SS313")
        assert any("continuously busy sender" in d.message
                   for d in report.diagnostics if d.rule == "SS313")
        assert not verify_plan(topology).has("SS313")

    def test_ss313_needs_a_declared_budget(self):
        report = lint_topology(_fixture("ss313_trigger.xml"))
        assert not report.has("SS313")  # plan pass is opt-in

    def test_ss314_zero_cooldown(self):
        adaptive = AdaptiveConfig(cooldown_ticks=0, unsafe=True)
        report = verify_plan(_topology(), backend="elastic",
                             adaptive=adaptive)
        assert report.has("SS314")
        assert not verify_plan(_topology(), backend="elastic",
                               adaptive=AdaptiveConfig()).has("SS314")

    def test_ss315_overhead_beyond_ceiling_warns(self):
        heavy = CheckpointConfig(interval_items=10, snapshot_overhead=0.01)
        report = verify_plan(_topology(checkpoint=heavy))
        assert report.has("SS315")
        assert report.exit_code <= 1  # a warning, not an error

    def test_ss315_cheap_checkpoint_is_clean(self):
        cheap = CheckpointConfig(interval_items=1000,
                                 snapshot_overhead=1e-6)
        assert not verify_plan(_topology(checkpoint=cheap)).has("SS315")

    def test_plan_rules_all_covered_here(self):
        # Every SS31x rule is pinned by a test above.
        assert set(PLAN_RULES) == {"SS310", "SS311", "SS312", "SS313",
                                   "SS314", "SS315"}


class TestLintFacade:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            lint_topology(_topology(), backend="quantum")

    def test_backend_adds_the_deploy_pass(self):
        report = lint_topology(_topology(fx.LAMBDA_CLOSURE_PATH),
                               backend="process")
        assert "deploy" in report.passes
        assert report.has("SS301")

    def test_plan_adds_the_plan_pass(self):
        report = lint_topology(_topology(), plan=True)
        assert "plan" in report.passes

    def test_default_lint_skips_the_deploy_pass(self):
        report = lint_topology(_topology(fx.LAMBDA_CLOSURE_PATH))
        assert "deploy" not in report.passes
        assert not report.has("SS301")

    def test_process_placement_is_solved_and_checked(self):
        # With shards given, the solver-driven placement is computed
        # and verified; the built-in placement pins unsafe operators
        # to the glue shard, so it must verify clean.
        report = lint_topology(_topology(), backend="process", plan=True,
                               shards=2)
        assert report.ok


class TestCatalogAudit:
    def test_builtin_catalog_is_deployable_everywhere(self):
        """Every shipped operator must survive any backend: importable,
        picklable __init__ state, replayable, no global writes."""
        import repro.operators as ops

        checked = 0
        for modinfo in pkgutil.iter_modules(ops.__path__):
            module = importlib.import_module(
                f"repro.operators.{modinfo.name}")
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if (not issubclass(cls, Operator) or inspect.isabstract(cls)
                        or cls.__module__ != module.__name__):
                    continue
                facts = analyze_deploy(cls)
                assert facts.process_safe, (
                    f"{facts.class_path}: not process-safe "
                    f"({facts.pickle_evidence()})")
                assert facts.replayable, (
                    f"{facts.class_path}: not replayable "
                    f"({facts.init_iterators})")
                assert not facts.global_writes, (
                    f"{facts.class_path}: writes module globals "
                    f"({facts.global_writes})")
                checked += 1
        assert checked >= 25  # the whole shipped catalog, not a subset


@pytest.mark.parametrize("seed", range(1, 21))
def test_random_testbeds_deploy_on_every_backend(seed):
    """Algorithm 5's generated testbeds must be deployable as-is: the
    generator only draws from the audited catalog, so the SS3xx pass
    has nothing to say on any backend."""
    topology = RandomTopologyGenerator(seed=seed).generate()
    for backend in BACKENDS:
        report = lint_topology(topology, check_code=False,
                               backend=backend, plan=True)
        assert report.ok, (
            f"seed {seed} fails on {backend}: {report.render()}")
