"""XML topology descriptions (the tool's input formalism, Section 4.1).

The original tool imports "the structure of the topology and the
profiling measurements expressed in an XML file", with tags for the
operators (name, service rate with time unit, implementation class,
state type, key distributions) and for the edges (probability,
selectivities).  This module parses and serializes that format::

    <topology name="example">
      <operator name="src" class="repro.operators.source_sink.GeneratorSource"
                type="stateless" service-time="1.0" time-unit="ms"/>
      <operator name="agg" class="repro.operators.aggregates.KeyedWindowedAggregate"
                type="partitioned-stateful" service-time="4.0" time-unit="ms"
                input-selectivity="10">
        <arg name="length" value="1000" type="int"/>
        <arg name="slide" value="10" type="int"/>
        <keys>
          <key id="k0" probability="0.5"/>
          <key id="k1" probability="0.5"/>
        </keys>
      </operator>
      <edge from="src" to="agg" probability="1.0" buffer-capacity="64"/>
    </topology>

Key distributions can also live in a side CSV file (``<keys file="..."/>``
with ``key,probability`` rows), as the paper's "file with their
probability distributions".

Parsing happens in two phases.  :func:`parse_draft` performs the
*lexical* phase: it reads the XML into an unvalidated
:class:`TopologyDraft` — malformed markup, missing attributes and
unparseable numbers raise :class:`XmlFormatError`, but *semantic*
violations (probability mass, negative service times, unreachable
operators) are preserved verbatim so the static verifier
(:mod:`repro.analysis.graph`) can report them as diagnostics instead of
dying on the first one.  :func:`parse_topology` adds the semantic
phase: with ``strict=True`` (the default) out-edge probability masses
that do not sum to one and non-positive buffer capacities are rejected
with an :class:`XmlFormatError` naming the offending operator or edge;
``strict=False`` is the escape hatch used by the shrinker — the mass is
renormalized and invalid capacities dropped, mirroring what
:func:`repro.testing.shrink.shrink` does to keep reduced topologies
well-formed.

The lexical phase is one streaming :mod:`xml.parsers.expat` pass.  The
key distributions are almost all of a testbed file (335 k of the
50-topology testbed's elements are ``<key>``), so a ``<key>`` inside
``<keys>`` never becomes a node: its start event puts ``id ->
float(probability)`` straight into the operator's frequency map, and
the first child that cannot go there is kept to be reported in document
order.  Every other element becomes a minimal node that the
``_parse_*`` helpers walk.  Markup errors read ``invalid XML: <expat
message>`` and namespaced tags ``{uri}tag``, ElementTree's spellings;
ElementTree itself only serializes (:func:`topology_to_xml`).
"""

from __future__ import annotations

import csv
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union
from xml.parsers import expat

from repro.core.graph import (
    BatchConfig,
    CheckpointConfig,
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)

#: Multipliers from XML time units to seconds.
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}

_ARG_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda text: text.strip().lower() in ("1", "true", "yes"),
}


class XmlFormatError(TopologyError):
    """Raised on malformed topology XML."""


# ----------------------------------------------------------------------
# the unvalidated draft layer
# ----------------------------------------------------------------------
@dataclass
class DraftOperator:
    """One ``<operator>`` element, lexically parsed but unvalidated."""

    name: str
    service_time: float
    state: StateKind = StateKind.STATELESS
    input_selectivity: float = 1.0
    output_selectivity: float = 1.0
    replication: int = 1
    key_frequencies: Optional[Dict[str, float]] = None
    operator_class: Optional[str] = None
    operator_args: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> OperatorSpec:
        """The validated :class:`OperatorSpec` of this draft operator."""
        keys: Optional[KeyDistribution] = None
        if self.key_frequencies is not None:
            try:
                keys = KeyDistribution(dict(self.key_frequencies))
            except TopologyError as exc:
                raise XmlFormatError(
                    f"operator {self.name!r}: {exc}") from None
        return OperatorSpec(
            name=self.name,
            service_time=self.service_time,
            state=self.state,
            input_selectivity=self.input_selectivity,
            output_selectivity=self.output_selectivity,
            replication=self.replication,
            keys=keys,
            operator_class=self.operator_class,
            operator_args=self.operator_args,
        )


@dataclass
class DraftEdge:
    """One ``<edge>`` element, lexically parsed but unvalidated."""

    source: str
    target: str
    probability: float = 1.0
    capacity: Optional[int] = None
    batch_size: Optional[int] = None
    batch_flush_timeout: Optional[float] = None

    @property
    def label(self) -> str:
        return f"{self.source}->{self.target}"

    def build(self) -> Edge:
        batch: Optional[BatchConfig] = None
        if self.batch_size is not None:
            batch = BatchConfig(
                size=self.batch_size,
                flush_timeout=(self.batch_flush_timeout
                               if self.batch_flush_timeout is not None
                               else BatchConfig().flush_timeout),
            )
        return Edge(self.source, self.target, self.probability,
                    capacity=self.capacity, batch=batch)


@dataclass
class DraftCheckpoint:
    """One ``<checkpoint>`` element, lexically parsed but unvalidated.

    ``snapshot_overhead`` is already scaled to seconds (the element
    takes the same ``time-unit`` attribute as operators).
    """

    interval_items: int
    retained: int = 2
    snapshot_overhead: float = 0.0

    def build(self) -> CheckpointConfig:
        try:
            return CheckpointConfig(
                interval_items=self.interval_items,
                retained=self.retained,
                snapshot_overhead=self.snapshot_overhead,
            )
        except TopologyError as exc:
            raise XmlFormatError(f"checkpoint: {exc}") from None

    @property
    def valid(self) -> bool:
        return (self.interval_items >= 1 and self.retained >= 1
                and self.snapshot_overhead >= 0.0)


@dataclass
class TopologyDraft:
    """A lexically parsed topology before any semantic validation.

    The static verifier consumes drafts directly so it can report
    *every* violation of a broken file; :meth:`build` performs the
    semantic phase and produces the validated :class:`Topology`.
    """

    name: str
    operators: List[DraftOperator]
    edges: List[DraftEdge]
    #: Source file of the draft, when parsed from one (diagnostics).
    path: Optional[str] = None
    #: Optional ``<checkpoint>`` element of the topology.
    checkpoint: Optional[DraftCheckpoint] = None
    #: Optional ``<latency-budget>`` element, already scaled to seconds.
    latency_budget: Optional[float] = None

    def operator_names(self) -> List[str]:
        return [op.name for op in self.operators]

    def out_mass(self) -> Dict[str, float]:
        """Total out-edge probability per operator (operators with
        out-edges only)."""
        totals: Dict[str, float] = {}
        for edge in self.edges:
            totals[edge.source] = totals.get(edge.source, 0.0) + edge.probability
        return totals

    def build(self, strict: bool = True) -> Topology:
        """Validate the draft into a :class:`Topology`.

        With ``strict=True`` a probability mass that does not sum to
        one or a non-positive buffer capacity raises
        :class:`XmlFormatError` naming the operator or edge.  With
        ``strict=False`` masses are renormalized and invalid
        capacities dropped (the shrinker's escape hatch).
        """
        edges = list(self.edges)
        known = set(self.operator_names())
        totals = self.out_mass()
        if strict:
            for name in sorted(totals):
                if name not in known:
                    continue  # dangling edge; Topology reports it
                total = totals[name]
                if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
                    raise XmlFormatError(
                        f"operator {name!r}: output edge probabilities sum "
                        f"to {total}, expected 1 (pass strict=False to "
                        "renormalize)"
                    )
            for edge in edges:
                if edge.capacity is not None and edge.capacity < 1:
                    raise XmlFormatError(
                        f"edge {edge.label!r}: buffer-capacity must be "
                        f">= 1, got {edge.capacity} (pass strict=False to "
                        "drop it)"
                    )
                if edge.batch_size is not None and edge.batch_size < 1:
                    raise XmlFormatError(
                        f"edge {edge.label!r}: batch-size must be >= 1, "
                        f"got {edge.batch_size} (pass strict=False to "
                        "drop it)"
                    )
                if (edge.batch_flush_timeout is not None
                        and edge.batch_flush_timeout <= 0.0):
                    raise XmlFormatError(
                        f"edge {edge.label!r}: batch-flush-timeout must be "
                        f"positive, got {edge.batch_flush_timeout} (pass "
                        "strict=False to drop it)"
                    )
        else:
            normalized: List[DraftEdge] = []
            for edge in edges:
                probability = edge.probability
                total = totals.get(edge.source, 0.0)
                if (total > 0.0 and math.isfinite(total)
                        and not math.isclose(total, 1.0, rel_tol=0.0,
                                             abs_tol=1e-6)):
                    probability = probability / total
                capacity = edge.capacity
                if capacity is not None and capacity < 1:
                    capacity = None
                batch_size = edge.batch_size
                if batch_size is not None and batch_size < 1:
                    batch_size = None
                batch_timeout = edge.batch_flush_timeout
                if batch_timeout is not None and batch_timeout <= 0.0:
                    batch_timeout = None
                normalized.append(DraftEdge(edge.source, edge.target,
                                            probability, capacity,
                                            batch_size, batch_timeout))
            edges = normalized
        checkpoint: Optional[CheckpointConfig] = None
        if self.checkpoint is not None:
            if strict:
                checkpoint = self.checkpoint.build()
            elif self.checkpoint.valid:
                checkpoint = self.checkpoint.build()
            # invalid + non-strict: checkpointing is an optimization
            # annotation, so the shrinker escape hatch just drops it
        latency_budget = self.latency_budget
        if latency_budget is not None and latency_budget <= 0.0:
            if strict:
                raise XmlFormatError(
                    f"latency-budget must be positive, got {latency_budget} "
                    "(pass strict=False to drop it)")
            latency_budget = None
        return Topology(
            [op.build() for op in self.operators],
            [edge.build() for edge in edges],
            name=self.name,
            checkpoint=checkpoint,
            latency_budget=latency_budget,
        )


def parse_topology(source: Union[str, "os.PathLike[str]"],
                   base_dir: Optional[str] = None,
                   strict: bool = True) -> Topology:
    """Parse a topology from an XML file path or an XML string.

    ``base_dir`` resolves relative ``<keys file="..."/>`` references;
    it defaults to the XML file's directory (or the current directory
    when parsing from a string).  ``strict`` controls the semantic
    phase: out-edge probability masses that do not sum to one and
    non-positive buffer capacities are rejected by default, while
    ``strict=False`` renormalizes and drops them respectively.
    """
    return parse_draft(source, base_dir).build(strict=strict)


def parse_draft(source: Union[str, "os.PathLike[str]"],
                base_dir: Optional[str] = None) -> TopologyDraft:
    """Lexically parse topology XML into an unvalidated draft.

    Raises :class:`XmlFormatError` only for markup-level problems
    (invalid XML, missing attributes, unparseable numbers); semantic
    violations survive into the draft for the static verifier.
    """
    text, directory = _read_source(source, base_dir)
    root = _read_tree(text)
    if root.tag != "topology":
        raise XmlFormatError(f"root element must be <topology>, got <{root.tag}>")

    name = root.get("name", "topology")
    operators: List[DraftOperator] = []
    edges: List[DraftEdge] = []
    checkpoint: Optional[DraftCheckpoint] = None
    latency_budget: Optional[float] = None
    for child in root:
        if child.tag == "operator":
            operators.append(_parse_operator(child, directory))
        elif child.tag == "edge":
            edges.append(_parse_edge(child))
        elif child.tag == "checkpoint":
            if checkpoint is not None:
                raise XmlFormatError(
                    "at most one <checkpoint> element is allowed")
            checkpoint = _parse_checkpoint(child)
        elif child.tag == "latency-budget":
            if latency_budget is not None:
                raise XmlFormatError(
                    "at most one <latency-budget> element is allowed")
            latency_budget = _parse_latency_budget(child)
        else:
            raise XmlFormatError(f"unexpected element <{child.tag}>")
    path = None
    if "<" not in str(source):
        path = os.fspath(source)
    return TopologyDraft(name=name, operators=operators, edges=edges,
                         path=path, checkpoint=checkpoint,
                         latency_budget=latency_budget)


def _read_source(source: Union[str, "os.PathLike[str]"],
                 base_dir: Optional[str]) -> tuple:
    text = str(source)
    if "<" in text:  # raw XML string
        return text, base_dir or "."
    path = os.fspath(source)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return (handle.read(),
                    base_dir or os.path.dirname(os.path.abspath(path)))
    except FileNotFoundError:
        raise XmlFormatError(
            f"topology file not found: {path!r} "
            f"(resolved to {os.path.abspath(path)!r}); relative paths are "
            "resolved against the current working directory — pass an "
            "absolute path, or an XML string to parse inline"
        ) from None


class _Element:
    """An element as the ``_parse_*`` helpers read it: ``tag``, ``get``
    and iteration over the children.

    The ``<key>`` children of a ``<keys>`` element are not nodes: they
    are read straight into ``keys``, an ``{id: probability}`` map in
    document order, and the first child that cannot go there (another
    tag, a missing attribute, an unparseable probability) is kept as
    ``first_bad`` for :func:`_parse_keys` to report.
    """

    __slots__ = ("tag", "attrib", "children", "keys", "first_bad")

    def __init__(self, tag: str, attrib: Dict[str, str]) -> None:
        self.tag = tag
        self.attrib = attrib
        self.children: List[_Element] = []
        self.keys: Optional[Dict[str, float]] = {} if tag == "keys" else None
        self.first_bad: Optional[_Element] = None

    def get(self, attribute: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrib.get(attribute, default)

    def __iter__(self) -> Iterator["_Element"]:
        return iter(self.children)


def _read_tree(text: str) -> _Element:
    """The root element of ``text``, read in one expat pass."""
    parser = expat.ParserCreate(None, "}")
    document = _Element("", {})
    # Adopts whatever a <key> contains, which nothing reads.
    ignored = _Element("", {})
    stack = [document]
    push, pop = stack.append, stack.pop

    def start(tag: str, attrib: Dict[str, str]) -> None:
        parent = stack[-1]
        keys = parent.keys
        if keys is not None and tag == "key":
            if parent.first_bad is None:
                try:
                    keys[attrib["id"]] = float(attrib["probability"])
                except (KeyError, ValueError):
                    parent.first_bad = _Element(tag, attrib)
            push(ignored)
            return
        if "}" in tag:
            # expat joins a namespace and a local name as ``uri}name``;
            # ElementTree's spelling, which messages use, is ``{uri}name``.
            tag = "{" + tag
        node = _Element(tag, attrib)
        if keys is not None and parent.first_bad is None:
            parent.first_bad = node
        parent.children.append(node)
        push(node)

    def end(tag: str) -> None:
        pop()

    def skipped(entity: str, is_parameter_entity: bool) -> None:
        # An entity the parser could not expand because its declaration
        # sits in an external DTD, which is never read.
        if not is_parameter_entity:
            raise XmlFormatError(
                f"invalid XML: undefined entity &{entity};: line "
                f"{parser.CurrentLineNumber}, column "
                f"{parser.CurrentColumnNumber}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise XmlFormatError(f"invalid XML: {exc}") from exc
    return document.children[0]


def _require(element: _Element, attribute: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise XmlFormatError(
            f"<{element.tag}> is missing required attribute {attribute!r}"
        )
    return value


def _parse_operator(element: _Element, directory: str) -> DraftOperator:
    name = _require(element, "name")
    unit = element.get("time-unit", "ms")
    try:
        scale = TIME_UNITS[unit]
    except KeyError:
        raise XmlFormatError(f"operator {name!r}: unknown time unit {unit!r}")
    raw_service_time = _require(element, "service-time")
    try:
        service_time = float(raw_service_time) * scale
    except ValueError:
        raise XmlFormatError(f"operator {name!r}: bad service-time") from None

    try:
        state = StateKind.parse(element.get("type", "stateless"))
    except TopologyError as exc:
        raise XmlFormatError(f"operator {name!r}: {exc}") from None

    args: Dict[str, Any] = {}
    keys: Optional[Dict[str, float]] = None
    for child in element:
        if child.tag == "arg":
            arg_name = _require(child, "name")
            arg_type = child.get("type", "str")
            parser = _ARG_PARSERS.get(arg_type)
            if parser is None:
                raise XmlFormatError(
                    f"operator {name!r}: unknown arg type {arg_type!r}"
                )
            raw_value = _require(child, "value")
            try:
                args[arg_name] = parser(raw_value)
            except ValueError:
                raise XmlFormatError(
                    f"operator {name!r}: bad value for arg {arg_name!r}"
                ) from None
        elif child.tag == "keys":
            keys = _parse_keys(child, name, directory)
        else:
            raise XmlFormatError(
                f"operator {name!r}: unexpected element <{child.tag}>"
            )

    try:
        input_selectivity = float(element.get("input-selectivity", "1"))
        output_selectivity = float(element.get("output-selectivity", "1"))
    except ValueError:
        raise XmlFormatError(f"operator {name!r}: bad selectivity") from None
    try:
        replication = int(element.get("replication", "1"))
    except ValueError:
        raise XmlFormatError(f"operator {name!r}: bad replication") from None

    return DraftOperator(
        name=name,
        service_time=service_time,
        state=state,
        input_selectivity=input_selectivity,
        output_selectivity=output_selectivity,
        replication=replication,
        key_frequencies=keys,
        operator_class=element.get("class"),
        operator_args=args,
    )


def _parse_keys(element: _Element, operator: str,
                directory: str) -> Dict[str, float]:
    file_ref = element.get("file")
    if file_ref is not None:
        path = file_ref if os.path.isabs(file_ref) else os.path.join(
            directory, file_ref)
        return _read_key_frequencies(path)
    child = element.first_bad
    if child is not None:
        if child.tag != "key":
            raise XmlFormatError(
                f"operator {operator!r}: unexpected element <{child.tag}> "
                "inside <keys>"
            )
        _require(child, "id")
        _require(child, "probability")
        raise XmlFormatError(
            f"operator {operator!r}: bad probability for key "
            f"{child.get('id')!r}")
    if not element.keys:
        raise XmlFormatError(
            f"operator {operator!r}: <keys> needs a file or <key> children"
        )
    return element.keys


def _parse_checkpoint(element: _Element) -> DraftCheckpoint:
    raw_interval = _require(element, "interval-items")
    try:
        interval_items = int(raw_interval)
    except ValueError:
        raise XmlFormatError("checkpoint: bad interval-items") from None
    try:
        retained = int(element.get("retained", "2"))
    except ValueError:
        raise XmlFormatError("checkpoint: bad retained") from None
    unit = element.get("time-unit", "ms")
    try:
        scale = TIME_UNITS[unit]
    except KeyError:
        raise XmlFormatError(
            f"checkpoint: unknown time unit {unit!r}") from None
    try:
        snapshot_overhead = float(
            element.get("snapshot-overhead", "0")) * scale
    except ValueError:
        raise XmlFormatError("checkpoint: bad snapshot-overhead") from None
    return DraftCheckpoint(interval_items=interval_items,
                           retained=retained,
                           snapshot_overhead=snapshot_overhead)


def _parse_latency_budget(element: _Element) -> float:
    """``<latency-budget value="250" time-unit="ms"/>`` in seconds."""
    raw_value = _require(element, "value")
    unit = element.get("time-unit", "ms")
    try:
        scale = TIME_UNITS[unit]
    except KeyError:
        raise XmlFormatError(
            f"latency-budget: unknown time unit {unit!r}") from None
    try:
        return float(raw_value) * scale
    except ValueError:
        raise XmlFormatError("latency-budget: bad value") from None


def _parse_edge(element: _Element) -> DraftEdge:
    source = _require(element, "from")
    target = _require(element, "to")
    try:
        probability = float(element.get("probability", "1"))
    except ValueError:
        raise XmlFormatError(
            f"edge {source!r}->{target!r}: bad probability") from None
    capacity: Optional[int] = None
    raw_capacity = element.get("buffer-capacity")
    if raw_capacity is not None:
        try:
            capacity = int(raw_capacity)
        except ValueError:
            raise XmlFormatError(
                f"edge {source!r}->{target!r}: bad buffer-capacity"
            ) from None
    batch_size: Optional[int] = None
    raw_batch = element.get("batch-size")
    if raw_batch is not None:
        try:
            batch_size = int(raw_batch)
        except ValueError:
            raise XmlFormatError(
                f"edge {source!r}->{target!r}: bad batch-size"
            ) from None
    batch_flush_timeout: Optional[float] = None
    raw_flush = element.get("batch-flush-timeout")
    if raw_flush is not None:
        try:
            batch_flush_timeout = float(raw_flush)
        except ValueError:
            raise XmlFormatError(
                f"edge {source!r}->{target!r}: bad batch-flush-timeout"
            ) from None
    return DraftEdge(source=source, target=target, probability=probability,
                     capacity=capacity, batch_size=batch_size,
                     batch_flush_timeout=batch_flush_timeout)


def _read_key_frequencies(path: str) -> Dict[str, float]:
    frequencies: Dict[str, float] = {}
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise XmlFormatError(
            f"cannot read key file {path!r}: {exc.strerror}") from None
    with handle:
        rows = csv.reader(handle)
        for row in rows:
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 2:
                raise XmlFormatError(f"{path}: expected 'key,probability' rows")
            key = row[0].strip()
            try:
                frequencies[key] = float(row[1])
            except ValueError:
                raise XmlFormatError(
                    f"{path}: row {rows.line_num}: bad probability "
                    f"{row[1]!r} for key {key!r}") from None
    if not frequencies:
        raise XmlFormatError(f"{path}: empty key distribution")
    return frequencies


def read_key_distribution(path: str) -> KeyDistribution:
    """Read a ``key,probability`` CSV file into a distribution."""
    return KeyDistribution(_read_key_frequencies(path))


def write_key_distribution(keys: KeyDistribution, path: str) -> None:
    """Write a distribution as a ``key,probability`` CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        for key, frequency in keys.items():
            writer.writerow([key, f"{frequency!r}"])


def topology_to_xml(topology: Topology, time_unit: str = "ms") -> str:
    """Serialize a topology to an XML string (inline key distributions)."""
    try:
        scale = TIME_UNITS[time_unit]
    except KeyError:
        raise XmlFormatError(f"unknown time unit {time_unit!r}") from None
    root = ET.Element("topology", {"name": topology.name})
    if topology.checkpoint is not None:
        ET.SubElement(root, "checkpoint", {
            "interval-items": str(topology.checkpoint.interval_items),
            "retained": str(topology.checkpoint.retained),
            "snapshot-overhead": repr(
                topology.checkpoint.snapshot_overhead / scale),
            "time-unit": time_unit,
        })
    if topology.latency_budget is not None:
        ET.SubElement(root, "latency-budget", {
            "value": repr(topology.latency_budget / scale),
            "time-unit": time_unit,
        })
    for spec in topology.operators:
        attributes = {
            "name": spec.name,
            "type": spec.state.value,
            "service-time": repr(spec.service_time / scale),
            "time-unit": time_unit,
        }
        if spec.operator_class:
            attributes["class"] = spec.operator_class
        if spec.input_selectivity != 1.0:
            attributes["input-selectivity"] = repr(spec.input_selectivity)
        if spec.output_selectivity != 1.0:
            attributes["output-selectivity"] = repr(spec.output_selectivity)
        if spec.replication != 1:
            attributes["replication"] = str(spec.replication)
        op_el = ET.SubElement(root, "operator", attributes)
        for arg_name in sorted(spec.operator_args):
            value = spec.operator_args[arg_name]
            arg_type = {int: "int", float: "float", bool: "bool"}.get(
                type(value), "str")
            ET.SubElement(op_el, "arg", {
                "name": arg_name,
                "value": repr(value) if arg_type == "float" else str(value),
                "type": arg_type,
            })
        if spec.keys is not None:
            keys_el = ET.SubElement(op_el, "keys")
            for key, frequency in spec.keys.items():
                ET.SubElement(keys_el, "key", {
                    "id": key, "probability": repr(frequency),
                })
    for edge in topology.edges:
        attributes = {
            "from": edge.source,
            "to": edge.target,
            "probability": repr(edge.probability),
        }
        if edge.capacity is not None:
            attributes["buffer-capacity"] = str(edge.capacity)
        if edge.batch is not None:
            attributes["batch-size"] = str(edge.batch.size)
            attributes["batch-flush-timeout"] = repr(edge.batch.flush_timeout)
        ET.SubElement(root, "edge", attributes)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def write_topology(topology: Topology, path: str,
                   time_unit: str = "ms") -> None:
    """Serialize a topology to an XML file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(topology_to_xml(topology, time_unit=time_unit))
