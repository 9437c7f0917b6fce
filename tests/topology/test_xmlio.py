"""Unit tests for the XML topology format."""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import lint_topology
from repro.core.graph import KeyDistribution, OperatorSpec, StateKind
from repro.topology.random_gen import generate_testbed
from repro.topology.xmlio import (
    XmlFormatError,
    parse_draft,
    parse_topology,
    read_key_distribution,
    topology_to_xml,
    write_key_distribution,
    write_topology,
)
from tests.conftest import make_fig11

MINIMAL = """
<topology name="mini">
  <operator name="src" service-time="1.0"/>
  <operator name="work" service-time="2.5" type="stateless"/>
  <edge from="src" to="work"/>
</topology>
"""

RICH = """
<topology name="rich">
  <operator name="src" service-time="1.0" time-unit="ms"
            class="repro.operators.source_sink.GeneratorSource"/>
  <operator name="agg" service-time="4000" time-unit="us"
            type="partitioned-stateful" input-selectivity="10"
            replication="3"
            class="repro.operators.aggregates.KeyedWindowedAggregate">
    <arg name="length" value="1000" type="int"/>
    <arg name="slide" value="10" type="int"/>
    <arg name="statistic" value="mean"/>
    <keys>
      <key id="a" probability="0.5"/>
      <key id="b" probability="0.3"/>
      <key id="c" probability="0.2"/>
    </keys>
  </operator>
  <operator name="flt" service-time="0.002" time-unit="s"
            output-selectivity="0.6"/>
  <edge from="src" to="agg" probability="0.7"/>
  <edge from="src" to="flt" probability="0.3"/>
</topology>
"""


class TestParsing:
    def test_minimal(self):
        topology = parse_topology(MINIMAL)
        assert topology.name == "mini"
        assert topology.names == ["src", "work"]
        assert math.isclose(topology.operator("work").service_time, 2.5e-3)

    def test_time_units(self):
        topology = parse_topology(RICH)
        assert math.isclose(topology.operator("src").service_time, 1e-3)
        assert math.isclose(topology.operator("agg").service_time, 4e-3)
        assert math.isclose(topology.operator("flt").service_time, 2e-3)

    def test_state_and_selectivities(self):
        topology = parse_topology(RICH)
        agg = topology.operator("agg")
        assert agg.state is StateKind.PARTITIONED
        assert agg.input_selectivity == 10.0
        assert agg.replication == 3
        assert topology.operator("flt").output_selectivity == 0.6

    def test_typed_args(self):
        agg = parse_topology(RICH).operator("agg")
        assert agg.operator_args == {"length": 1000, "slide": 10,
                                     "statistic": "mean"}

    def test_inline_keys(self):
        agg = parse_topology(RICH).operator("agg")
        assert math.isclose(agg.keys.max_frequency(), 0.5)
        assert len(agg.keys) == 3

    def test_edge_probabilities(self):
        topology = parse_topology(RICH)
        assert math.isclose(topology.edge("src", "agg").probability, 0.7)

    def test_operator_class_recorded(self):
        topology = parse_topology(RICH)
        assert topology.operator("src").operator_class.endswith(
            "GeneratorSource")


class TestParsingErrors:
    def test_invalid_xml(self):
        with pytest.raises(XmlFormatError, match="invalid XML"):
            parse_topology("<topology><broken</topology>")

    def test_wrong_root(self):
        with pytest.raises(XmlFormatError, match="root element"):
            parse_topology("<graph/>")

    def test_missing_required_attribute(self):
        with pytest.raises(XmlFormatError, match="missing required"):
            parse_topology('<topology><operator name="a"/></topology>')

    def test_unknown_time_unit(self):
        xml = ('<topology><operator name="a" service-time="1" '
               'time-unit="fortnights"/></topology>')
        with pytest.raises(XmlFormatError, match="time unit"):
            parse_topology(xml)

    def test_bad_service_time(self):
        xml = '<topology><operator name="a" service-time="soon"/></topology>'
        with pytest.raises(XmlFormatError, match="bad service-time"):
            parse_topology(xml)

    def test_unknown_element(self):
        xml = ('<topology><operator name="a" service-time="1"/>'
               "<wormhole/></topology>")
        with pytest.raises(XmlFormatError, match="unexpected element"):
            parse_topology(xml)

    def test_unknown_arg_type(self):
        xml = ('<topology><operator name="a" service-time="1">'
               '<arg name="x" value="1" type="complex"/></operator>'
               "</topology>")
        with pytest.raises(XmlFormatError, match="unknown arg type"):
            parse_topology(xml)

    def test_empty_keys_element(self):
        xml = ('<topology><operator name="a" service-time="1" '
               'type="partitioned"><keys/></operator></topology>')
        with pytest.raises(XmlFormatError, match="<keys>"):
            parse_topology(xml)

    @pytest.mark.parametrize("key, message", [
        ('<key probability="1"/>',
         "<key> is missing required attribute 'id'"),
        ('<key id="k"/>',
         "<key> is missing required attribute 'probability'"),
        ('<key/>', "<key> is missing required attribute 'id'"),
        ('<key id="k" probability="often"/>',
         "operator 'a': bad probability for key 'k'"),
        ('<hotkey id="k" probability="1"/>',
         "operator 'a': unexpected element <hotkey> inside <keys>"),
    ])
    def test_malformed_key_element(self, key, message):
        xml = ('<topology><operator name="a" service-time="1" '
               'type="partitioned"><keys><key id="ok" probability="0.5"/>'
               f'{key}</keys></operator></topology>')
        with pytest.raises(XmlFormatError) as excinfo:
            parse_topology(xml)
        assert str(excinfo.value) == message

    def test_bad_edge_probability(self):
        xml = ('<topology><operator name="a" service-time="1"/>'
               '<operator name="b" service-time="1"/>'
               '<edge from="a" to="b" probability="likely"/></topology>')
        with pytest.raises(XmlFormatError, match="bad probability"):
            parse_topology(xml)

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "no_such_topology.xml")
        with pytest.raises(XmlFormatError, match="not found") as excinfo:
            parse_topology(missing)
        message = str(excinfo.value)
        assert "no_such_topology.xml" in message
        assert os.path.abspath(missing) in message

    def test_missing_relative_file_mentions_cwd_resolution(self):
        # A TopologyError subclass, so the CLI reports it as a user
        # error instead of a traceback.
        from repro.core.graph import TopologyError

        with pytest.raises(TopologyError, match="working directory"):
            parse_topology("definitely_not_here.xml")


_OPERATOR = '<operator name="a" service-time="1" type="partitioned">{}</operator>'
_TWO_KEYS = ('<key id="k0" probability="0.25"/>'
             '<key id="k1" probability="0.75"/>')


def _in_operator(body, prolog=""):
    return f'{prolog}<topology name="t">{_OPERATOR.format(body)}</topology>'


#: name -> (document, outcome).  The outcome is the draft's name and
#: ``(operator, key items in order, args)`` per operator, or the
#: XmlFormatError text.  Every outcome was recorded from the
#: ElementTree-based reader this streaming reader replaced.
READER_PARITY = {
    "plain": (
        _in_operator(f"<keys>{_TWO_KEYS}</keys>"),
        ("t", [("a", [("k0", 0.25), ("k1", 0.75)], {})])),
    "latin1-declaration": (
        _in_operator('<keys><key id="clé" probability="1"/></keys>',
                     '<?xml version="1.0" encoding="ISO-8859-1"?>'),
        ("t", [("a", [("clé", 1.0)], {})])),
    "utf8-declaration": (
        _in_operator('<keys><key id="clé" probability="1"/></keys>',
                     '<?xml version="1.0" encoding="UTF-8"?>\n'),
        ("t", [("a", [("clé", 1.0)], {})])),
    "comment-and-text-in-keys": (
        _in_operator(f"<keys><!-- hot keys first -->\n  text {_TWO_KEYS} "
                     "tail</keys>"),
        ("t", [("a", [("k0", 0.25), ("k1", 0.75)], {})])),
    "child-inside-key": (
        _in_operator('<keys><key id="k0" probability="0.25"><note/></key>'
                     '<key id="k1" probability="0.75">'
                     '<key id="x" probability="x"/></key></keys>'),
        ("t", [("a", [("k0", 0.25), ("k1", 0.75)], {})])),
    "escaped-and-non-ascii-ids": (
        _in_operator('<keys><key id="a&amp;b" probability="0.5"/>'
                     '<key id="ключ" probability="0.25"/>'
                     '<key id="caf&#233;" probability="0.25"/></keys>'),
        ("t", [("a", [("a&b", 0.5), ("ключ", 0.25), ("café", 0.25)], {})])),
    "internal-doctype-entity": (
        _in_operator('<keys><key id="&hot;" probability="&half;"/>'
                     '<key id="cold" probability="0.5"/></keys>',
                     '<!DOCTYPE topology [<!ENTITY half "0.5">'
                     '<!ENTITY hot "k-hot">]>'),
        ("t", [("a", [("k-hot", 0.5), ("cold", 0.5)], {})])),
    "probability-before-id": (
        _in_operator('<keys><key probability="0.25" id="k0"/>'
                     '<key probability="0.75" id="k1"/></keys>'),
        ("t", [("a", [("k0", 0.25), ("k1", 0.75)], {})])),
    "duplicate-key-id": (
        _in_operator('<keys><key id="k0" probability="0.1"/>'
                     '<key id="k1" probability="0.5"/>'
                     '<key id="k0" probability="0.5"/></keys>'),
        ("t", [("a", [("k0", 0.5), ("k1", 0.5)], {})])),
    "keys-inside-arg-ignored": (
        '<topology name="t"><operator name="a" service-time="1">'
        '<arg name="x" value="1"><keys><key id="k" probability="x"/></keys>'
        "</arg></operator></topology>",
        ("t", [("a", None, {"x": "1"})])),
    "key-outside-keys": (
        _in_operator('<key id="k0" probability="1"/>'),
        "operator 'a': unexpected element <key>"),
    "missing-id": (
        _in_operator('<keys><key probability="1"/></keys>'),
        "<key> is missing required attribute 'id'"),
    "probability-x": (
        _in_operator('<keys><key id="k0" probability="x"/></keys>'),
        "operator 'a': bad probability for key 'k0'"),
    "empty-keys": (
        _in_operator("<keys></keys>"),
        "operator 'a': <keys> needs a file or <key> children"),
    "keys-with-only-a-comment": (
        _in_operator("<keys><!-- none --></keys>"),
        "operator 'a': <keys> needs a file or <key> children"),
    "namespaced-key-attribute": (
        _in_operator('<keys xmlns:n="urn:n"><key n:id="k0" probability="1"/>'
                     "</keys>"),
        "<key> is missing required attribute 'id'"),
    "namespaced-key-tag": (
        _in_operator('<keys xmlns:n="urn:n">'
                     '<n:key id="k0" probability="1"/></keys>'),
        "operator 'a': unexpected element <{urn:n}key> inside <keys>"),
    "first-bad-key-wins": (
        _in_operator('<keys><key id="k0" probability="x"/><hotkey/></keys>'),
        "operator 'a': bad probability for key 'k0'"),
    "first-bad-child-wins": (
        _in_operator('<keys><hotkey/><key id="k0" probability="x"/></keys>'),
        "operator 'a': unexpected element <hotkey> inside <keys>"),
    "service-time-before-keys": (
        '<topology><operator name="a" service-time="soon">'
        '<keys><key id="k0" probability="x"/></keys></operator></topology>',
        "operator 'a': bad service-time"),
    "earlier-operator-first": (
        '<topology><operator name="a" service-time="1">'
        '<keys><key id="k0" probability="x"/></keys></operator>'
        '<operator name="b"/></topology>',
        "operator 'a': bad probability for key 'k0'"),
    "wrong-root": (
        "<graph/>",
        "root element must be <topology>, got <graph>"),
    "namespaced-root": (
        '<topology xmlns="urn:x"/>',
        "root element must be <topology>, got <{urn:x}topology>"),
    "two-roots": (
        "<topology/><topology/>",
        "invalid XML: junk after document element: line 1, column 11"),
    "unclosed-token": (
        "<topology",
        "invalid XML: unclosed token: line 1, column 0"),
    "mismatched-tag": (
        "<topology><operator></topology>",
        "invalid XML: mismatched tag: line 1, column 22"),
    "undefined-entity": (
        "<topology>&nope;</topology>",
        "invalid XML: undefined entity: line 1, column 10"),
    "external-dtd-undefined-entity": (
        '<!DOCTYPE topology SYSTEM "topology.dtd"><topology>&nope;'
        "</topology>",
        "invalid XML: undefined entity &nope;: line 1, column 51"),
}


@pytest.mark.parametrize("case", READER_PARITY)
def test_reader_parity(case):
    document, expected = READER_PARITY[case]
    try:
        draft = parse_draft(document)
    except XmlFormatError as exc:
        outcome = str(exc)
    else:
        outcome = (draft.name, [
            (op.name,
             None if op.key_frequencies is None
             else list(op.key_frequencies.items()),
             op.operator_args)
            for op in draft.operators])
    assert outcome == expected


def _structure(topology):
    """Everything a topology holds, keys in order (Topology has no ==)."""
    return (topology.name, topology.checkpoint, topology.latency_budget,
            topology.operators, topology.edges,
            [list(spec.keys.items()) for spec in topology.operators
             if spec.keys is not None])


class TestRoundTrip:
    def test_fig11_round_trip(self):
        original = make_fig11()
        parsed = parse_topology(topology_to_xml(original))
        assert parsed.names == original.names
        for name in original.names:
            assert math.isclose(parsed.operator(name).service_time,
                                original.operator(name).service_time)
        for edge in original.edges:
            assert math.isclose(
                parsed.edge(edge.source, edge.target).probability,
                edge.probability,
            )

    def test_testbed_round_trips_exactly(self):
        for topology in generate_testbed(5):
            parsed = parse_topology(topology_to_xml(topology))
            for spec in topology.operators:
                twin = parsed.operator(spec.name)
                assert twin.state is spec.state
                assert math.isclose(twin.service_time, spec.service_time)
                assert math.isclose(twin.input_selectivity,
                                    spec.input_selectivity)
                assert math.isclose(twin.output_selectivity,
                                    spec.output_selectivity)
                assert dict(twin.operator_args) == dict(spec.operator_args)
                if spec.keys is not None:
                    assert dict(twin.keys.frequencies) == pytest.approx(
                        dict(spec.keys.frequencies))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_testbed_topology_round_trips_to_an_equal_one(self, seed):
        # Seconds, not the default milliseconds: the ms scaling moves a
        # service time by an ulp now and then, which is the serializer's
        # rounding, not the reader's.
        topology = generate_testbed(1, seed=seed)[0]
        parsed = parse_topology(topology_to_xml(topology, time_unit="s"))
        assert _structure(parsed) == _structure(topology)

    def test_write_and_parse_file(self, tmp_path):
        path = tmp_path / "topo.xml"
        write_topology(make_fig11(), str(path))
        parsed = parse_topology(str(path))
        assert parsed.name == "fig11"

    def test_serializer_rejects_unknown_unit(self):
        with pytest.raises(XmlFormatError, match="time unit"):
            topology_to_xml(make_fig11(), time_unit="parsec")


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples", "topologies")


class TestFixtureFileRoundTrip:
    """Shipped fixtures survive parse -> serialize -> reparse intact."""

    @pytest.mark.parametrize("filename", [
        "fig11.xml", "runnable_pipeline.xml", "testbed_sample.xml",
    ])
    def test_fixture_round_trips(self, filename):
        original = parse_topology(os.path.join(FIXTURES, filename))
        parsed = parse_topology(topology_to_xml(original))
        assert parsed.name == original.name
        assert parsed.names == original.names
        for spec in original.operators:
            twin = parsed.operator(spec.name)
            assert twin.state is spec.state
            assert math.isclose(twin.service_time, spec.service_time)
            assert math.isclose(twin.input_selectivity,
                                spec.input_selectivity)
            assert math.isclose(twin.output_selectivity,
                                spec.output_selectivity)
            assert twin.replication == spec.replication
            assert twin.operator_class == spec.operator_class
            assert dict(twin.operator_args) == dict(spec.operator_args)
            if spec.keys is None:
                assert twin.keys is None
            else:
                assert dict(twin.keys.frequencies) == pytest.approx(
                    dict(spec.keys.frequencies))
        for edge in original.edges:
            assert math.isclose(
                parsed.edge(edge.source, edge.target).probability,
                edge.probability,
            )


class TestKeyFiles:
    def test_round_trip_csv(self, tmp_path):
        path = str(tmp_path / "keys.csv")
        keys = KeyDistribution.zipf(10, 1.3)
        write_key_distribution(keys, path)
        loaded = read_key_distribution(path)
        assert dict(loaded.frequencies) == pytest.approx(
            dict(keys.frequencies))

    def test_keys_file_reference(self, tmp_path):
        keys_path = tmp_path / "keys.csv"
        write_key_distribution(KeyDistribution.uniform(4), str(keys_path))
        xml_path = tmp_path / "topo.xml"
        xml_path.write_text(
            '<topology><operator name="a" service-time="1" '
            'type="partitioned"><keys file="keys.csv"/></operator>'
            "</topology>"
        )
        topology = parse_topology(str(xml_path))
        assert len(topology.operator("a").keys) == 4

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "keys.csv"
        path.write_text("# header\n\nk0,0.5\nk1,0.5\n")
        assert len(read_key_distribution(str(path))) == 2

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "keys.csv"
        path.write_text("k0,0.5,extra\n")
        with pytest.raises(XmlFormatError, match="key,probability"):
            read_key_distribution(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "keys.csv"
        path.write_text("# nothing\n")
        with pytest.raises(XmlFormatError, match="empty"):
            read_key_distribution(str(path))

    @staticmethod
    def _referencing(tmp_path, file_ref):
        xml_path = tmp_path / "topo.xml"
        xml_path.write_text(
            '<topology><operator name="a" service-time="1" '
            f'type="partitioned"><keys file="{file_ref}"/></operator>'
            "</topology>")
        return str(xml_path)

    def test_unparseable_probability_names_path_row_and_key(self, tmp_path):
        path = tmp_path / "keys.csv"
        path.write_text("# key,probability\nk0,0.5\nk1,abc\n")
        expected = f"{path}: row 3: bad probability 'abc' for key 'k1'"
        with pytest.raises(XmlFormatError) as direct:
            read_key_distribution(str(path))
        assert str(direct.value) == expected
        xml_path = self._referencing(tmp_path, "keys.csv")
        with pytest.raises(XmlFormatError) as parsed:
            parse_topology(xml_path)
        assert str(parsed.value) == expected
        with pytest.raises(XmlFormatError) as linted:
            lint_topology(xml_path)
        assert str(linted.value) == expected

    def test_missing_file_names_the_path(self, tmp_path):
        xml_path = self._referencing(tmp_path, "absent.csv")
        missing = os.path.join(str(tmp_path), "absent.csv")
        with pytest.raises(XmlFormatError) as excinfo:
            parse_topology(xml_path)
        assert str(excinfo.value) == (
            f"cannot read key file {missing!r}: No such file or directory")


class TestCheckpointElement:
    XML = (
        '<topology name="ck">'
        '<checkpoint interval-items="50" retained="3" '
        'snapshot-overhead="2.0" time-unit="ms"/>'
        '<operator name="a" service-time="1"/>'
        '</topology>'
    )

    def test_parse(self):
        topology = parse_topology(self.XML)
        assert topology.checkpoint is not None
        assert topology.checkpoint.interval_items == 50
        assert topology.checkpoint.retained == 3
        assert topology.checkpoint.snapshot_overhead == pytest.approx(2.0e-3)

    def test_defaults(self):
        topology = parse_topology(
            '<topology><checkpoint interval-items="10"/>'
            '<operator name="a" service-time="1"/></topology>')
        assert topology.checkpoint.retained == 2
        assert topology.checkpoint.snapshot_overhead == 0.0

    def test_absent_means_disabled(self):
        topology = parse_topology(
            '<topology><operator name="a" service-time="1"/></topology>')
        assert topology.checkpoint is None

    def test_round_trip(self):
        topology = parse_topology(self.XML)
        again = parse_topology(topology_to_xml(topology))
        assert again.checkpoint == topology.checkpoint

    def test_missing_interval_rejected(self):
        with pytest.raises(XmlFormatError, match="interval-items"):
            parse_topology(
                '<topology><checkpoint/>'
                '<operator name="a" service-time="1"/></topology>')

    def test_bad_interval_rejected_strict(self):
        xml = ('<topology><checkpoint interval-items="0"/>'
               '<operator name="a" service-time="1"/></topology>')
        with pytest.raises(XmlFormatError, match="interval"):
            parse_topology(xml)

    def test_bad_interval_dropped_lenient(self):
        xml = ('<topology><checkpoint interval-items="0"/>'
               '<operator name="a" service-time="1"/></topology>')
        assert parse_topology(xml, strict=False).checkpoint is None

    def test_duplicate_rejected(self):
        xml = ('<topology><checkpoint interval-items="1"/>'
               '<checkpoint interval-items="2"/>'
               '<operator name="a" service-time="1"/></topology>')
        with pytest.raises(XmlFormatError, match="one <checkpoint>"):
            parse_topology(xml)


class TestLatencyBudgetElement:
    XML = (
        '<topology name="lb">'
        '<latency-budget value="250" time-unit="ms"/>'
        '<operator name="a" service-time="1"/>'
        '</topology>'
    )

    def test_parse_scales_the_unit(self):
        topology = parse_topology(self.XML)
        assert topology.latency_budget == pytest.approx(0.25)

    def test_default_unit_is_milliseconds(self):
        topology = parse_topology(
            '<topology><latency-budget value="40"/>'
            '<operator name="a" service-time="1"/></topology>')
        assert topology.latency_budget == pytest.approx(0.04)

    def test_absent_means_unbounded(self):
        topology = parse_topology(
            '<topology><operator name="a" service-time="1"/></topology>')
        assert topology.latency_budget is None

    def test_round_trip(self):
        topology = parse_topology(self.XML)
        again = parse_topology(topology_to_xml(topology))
        assert again.latency_budget == pytest.approx(topology.latency_budget)

    def test_missing_value_rejected(self):
        with pytest.raises(XmlFormatError, match="value"):
            parse_topology(
                '<topology><latency-budget/>'
                '<operator name="a" service-time="1"/></topology>')

    def test_unknown_unit_rejected(self):
        with pytest.raises(XmlFormatError, match="time unit"):
            parse_topology(
                '<topology><latency-budget value="1" time-unit="h"/>'
                '<operator name="a" service-time="1"/></topology>')

    def test_nonpositive_rejected_strict(self):
        xml = ('<topology><latency-budget value="0"/>'
               '<operator name="a" service-time="1"/></topology>')
        with pytest.raises(XmlFormatError, match="positive"):
            parse_topology(xml)

    def test_nonpositive_dropped_lenient(self):
        xml = ('<topology><latency-budget value="0"/>'
               '<operator name="a" service-time="1"/></topology>')
        assert parse_topology(xml, strict=False).latency_budget is None

    def test_duplicate_rejected(self):
        xml = ('<topology><latency-budget value="1"/>'
               '<latency-budget value="2"/>'
               '<operator name="a" service-time="1"/></topology>')
        with pytest.raises(XmlFormatError, match="one <latency-budget>"):
            parse_topology(xml)
