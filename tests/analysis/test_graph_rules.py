"""The graph verifier against the seeded defect corpus.

Every SS1xx rule has one trigger fixture and one clean near-miss; the
parametrized tests pin both the hit and the absence of false
positives.  A property test checks that Algorithm 5's random testbeds
always lint clean at error level — the generator's output is, by
construction, a valid input for the paper's pipeline.
"""

import os
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import lint_topology, verify_graph
from repro.analysis.diagnostics import Severity
from repro.analysis.graph import GRAPH_RULES, draft_of
from repro.core.cycles import CyclicGraph
from repro.core.graph import KeyDistribution, TopologyError
from repro.topology.random_gen import RandomTopologyGenerator, generate_testbed
from repro.topology.xmlio import parse_draft, parse_topology

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Rules whose trigger is warning severity (the rest are errors).
WARNING_RULES = {"SS107", "SS115", "SS116"}


def _fixture(rule: str, kind: str) -> str:
    return os.path.join(FIXTURES, f"{rule.lower()}_{kind}.xml")


@pytest.mark.parametrize("rule", GRAPH_RULES)
class TestDefectCorpus:
    def test_trigger_fires_the_rule(self, rule):
        report = verify_graph(parse_draft(_fixture(rule, "trigger")))
        assert report.has(rule), (
            f"{rule} trigger fixture did not fire {rule}; "
            f"got {report.rules()}")
        expected = (Severity.WARNING if rule in WARNING_RULES
                    else Severity.ERROR)
        assert all(d.severity is expected for d in report.by_rule(rule))

    def test_clean_near_miss_stays_clean(self, rule):
        report = verify_graph(parse_draft(_fixture(rule, "clean")))
        assert report.clean, (
            f"{rule} near-miss fixture is not clean: {report.render()}")

    def test_diagnostics_carry_the_source_path(self, rule):
        path = _fixture(rule, "trigger")
        report = verify_graph(parse_draft(path))
        assert all(d.location == path for d in report.by_rule(rule))


def test_corpus_covers_every_graph_rule():
    for rule in GRAPH_RULES:
        assert os.path.exists(_fixture(rule, "trigger"))
        assert os.path.exists(_fixture(rule, "clean"))


#: The SS114/SS115 findings of the whole corpus as
#: ``(rule, subject, message)``; any fixture not named has none.
CYCLE_FINDINGS = {
    "ss114_trigger.xml": [(
        "SS114", None,
        "cycle amplification 1.800 >= 1 through {ping, pong}: the feedback "
        "loop grows its own traffic, bounded buffers provably fill and a BAS "
        "deployment deadlocks")],
    "ss115_trigger.xml": [(
        "SS115", "ping",
        "steady-state fixed point saturates cycle member(s) ping: the loop's "
        "buffers can all fill simultaneously (metastable BAS deadlock); use "
        "credit-based flow control or shedding on the feedback edge")],
}


def test_cycle_findings_of_the_corpus_are_pinned():
    for filename in sorted(os.listdir(FIXTURES)):
        if not filename.endswith(".xml"):
            continue
        report = verify_graph(parse_draft(os.path.join(FIXTURES, filename)))
        found = [(d.rule, d.subject, d.message) for d in report.diagnostics
                 if d.rule in ("SS114", "SS115")]
        assert found == CYCLE_FINDINGS.get(filename, []), filename


def test_lint_of_an_acyclic_topology_builds_no_graph_and_no_keys(monkeypatch):
    """Lint runs twice per optimized topology (the tool's own and the
    generated program's header): on an acyclic graph it must neither
    build the cyclic model nor revalidate a key distribution."""
    topology = next(t for t in generate_testbed(10, seed=42)
                    if sum(spec.keys is not None for spec in t.operators) > 1)
    built = Counter()
    graph_init = CyclicGraph.__init__
    keys_post_init = KeyDistribution.__post_init__

    def counted_graph_init(self, *args, **kwargs):
        built["CyclicGraph"] += 1
        graph_init(self, *args, **kwargs)

    def counted_keys_post_init(self):
        built["KeyDistribution"] += 1
        keys_post_init(self)

    monkeypatch.setattr(CyclicGraph, "__init__", counted_graph_init)
    monkeypatch.setattr(KeyDistribution, "__post_init__",
                        counted_keys_post_init)
    report = lint_topology(topology)
    assert report.ok
    assert built == Counter()


def test_verify_graph_accepts_validated_topologies():
    topology = parse_topology(
        _fixture("SS101", "clean"))
    report = verify_graph(topology)
    assert report.clean
    assert report.passes == ("graph",)


def test_draft_of_round_trips_specs():
    topology = parse_topology(_fixture("SS112", "clean"))
    draft = draft_of(topology)
    rebuilt = draft.build(strict=True)
    assert rebuilt.names == topology.names
    assert rebuilt.operator("work").keys is not None


NAN = float("nan")


@pytest.mark.parametrize("frequencies, message", [
    # A NaN anywhere is named, whatever it hides behind.
    ({"a": 0.5, "b": NAN, "c": 0.5}, "non-positive key frequencies: ['b']"),
    ({"a": NAN, "b": 0.5, "c": 0.5}, "non-positive key frequencies: ['a']"),
    ({"a": 0.7, "b": NAN, "c": -0.1, "d": 0.0},
     "non-positive key frequencies: ['b', 'c', 'd']"),
    ({"z": 0.0, "a": 1.0}, "non-positive key frequencies: ['z']"),
    ({"a": 0.5, "b": 0.4}, "key frequencies sum to 0.9, expected 1"),
    ({}, "key frequencies sum to 0.0, expected 1"),
    ({"a": 0.5, "b": 0.5}, None),
])
def test_key_frequency_diagnostics(frequencies, message):
    draft = parse_draft(_fixture("SS113", "clean"))
    work = next(op for op in draft.operators if op.name == "work")
    work.key_frequencies = frequencies
    found = [d.message for d in verify_graph(draft).diagnostics
             if d.rule == "SS113"]
    assert found == ([message] if message else [])


@st.composite
def _key_maps(draw):
    """Maps around the mass rule's edges: sums at 1 + offset with
    offsets at and beside +-1e-6, and some frequencies replaced by NaN,
    0, a negative or a term that overflows a running sum."""
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    offset = (draw(st.sampled_from([0.0, 1e-6, -1e-6, 1e-3, -1e-3]))
              + draw(st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12])))
    total = sum(weights)
    values = [w / total * (1.0 + offset) for w in weights]
    for index in draw(st.sets(st.integers(0, len(values) - 1))):
        values[index] = draw(st.sampled_from(
            [NAN, 0.0, -0.25, -5e-324, 1e308]))
    return {f"k{i}": value for i, value in enumerate(values)}


@settings(max_examples=300, deadline=None)
@given(frequencies=_key_maps())
@example(frequencies={})
@example(frequencies={"a": 1e308, "b": 1e308})
# Summed left to right this is 0.999999; exactly rounded, 0.9999990000000001.
@example(frequencies={"a": 0.3469808327119855, "b": 0.19395547193885343,
                      "c": 0.4590626953491611})
def test_key_distribution_raises_exactly_when_ss113_reports(frequencies):
    draft = parse_draft(_fixture("SS113", "clean"))
    work = next(op for op in draft.operators if op.name == "work")
    work.key_frequencies = frequencies
    reported = verify_graph(draft).has("SS113")
    try:
        KeyDistribution(frequencies)
    except TopologyError:
        raised = True
    else:
        raised = False
    assert raised == reported


def test_stateful_replication_warning_on_validated_topology():
    topology = parse_topology(_fixture("SS116", "trigger"))
    report = verify_graph(topology)
    assert report.has("SS116")
    assert report.ok  # warning, not error


@pytest.mark.parametrize("seed", range(1, 21))
def test_random_testbeds_lint_clean_at_error_level(seed):
    """Algorithm 5 output is always a valid pipeline input."""
    topology = RandomTopologyGenerator(seed=seed).generate()
    report = lint_topology(topology)
    assert report.ok, (
        f"seed {seed} topology has lint errors:\n{report.render()}")
