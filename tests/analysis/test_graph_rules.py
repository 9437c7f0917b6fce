"""The graph verifier against the seeded defect corpus.

Every SS1xx rule has one trigger fixture and one clean near-miss; the
parametrized tests pin both the hit and the absence of false
positives.  A property test checks that Algorithm 5's random testbeds
always lint clean at error level — the generator's output is, by
construction, a valid input for the paper's pipeline.
"""

import os

import pytest

from repro.analysis import lint_topology, verify_graph
from repro.analysis.diagnostics import Severity
from repro.analysis.graph import GRAPH_RULES, draft_of
from repro.topology.random_gen import RandomTopologyGenerator
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
