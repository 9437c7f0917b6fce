"""Pass 3 — the deployment-safety analyzer: will the plan *run*?

Since the lint pass landed, the system has grown three execution
backends (threaded, process-sharded, elastic) plus aligned-barrier
checkpointing — and an optimized plan that is perfectly sound as a
queueing network can still be illegal on the backend it is deployed
to: an operator holding a lambda cannot cross a process boundary, a
source holding a one-shot generator cannot replay after recovery, an
elastic migration cannot split monolithic state.  This pass proves a
``(topology, deployment plan, RuntimeConfig)`` triple executable
*statically*, so deployment fails at lint time instead of as a crashed
shard worker.

Two layers share the SS3xx rule space:

* **operator rules (SS301–SS305)** — an interprocedural AST/object
  pass over each spec's ``operator_class`` (reusing the opcode
  machinery): pickle/fork safety of ``__init__`` state for the process
  backend, snapshot/restore soundness for checkpointing, source
  replayability, migration-partitionability for elasticity, and
  module-global races across replicas;
* **plan rules (SS310–SS315)** — a config/plan verifier: the
  elastic×checkpoint conflict, invalid or state-splitting shard
  placements, batch flush deadlines against the declared latency
  budget, adaptive cooldowns shorter than one control period, and the
  predicted checkpoint overhead ceiling.

Rules
-----
======  ========  ==========================================================
SS301   error     operator class is not process-safe: unimportable by
                  workers, or ``__init__`` state holds lambdas, locks,
                  file handles, sockets, threads or generators
SS302   error     default deepcopy snapshot would capture an
                  unsnapshotable resource (or only one of the two
                  snapshot hooks is overridden)
SS303   error     source holds a one-shot iterator without overriding
                  the snapshot hooks: recovery cannot replay the stream
SS304   error     partitioned state is not migration-partitionable
                  (missing ``key_of`` or monolithic writes)
SS305   error     module-global state written from operator_function
                  races across replicas and processes
SS310   error     elastic mode and checkpointing configured together
SS311   error     shard placement names unknown operators or shards, or
                  mismatches the replication degree
SS312   error     shard placement scatters a stateful operator
SS313   error     a batch flush deadline exceeds the latency budget
                  (the wait a continuously busy sender may impose)
SS314   error     adaptive cooldown shorter than one control period
SS315   warning   predicted checkpoint overhead above the ceiling
======  ========  ==========================================================
"""

from __future__ import annotations

import ast
import collections
import inspect
import sys
import types
from dataclasses import dataclass
from functools import lru_cache
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.analysis.diagnostics import (Diagnostic, LintReport, Severity,
                                        register_rules)
from repro.analysis.opcode import (_class_sources, _ClassSources,
                                   _dotted_name, specs_with_code,
                                   try_analyze)
from repro.core.graph import StateKind, Topology
from repro.operators.base import Operator, load_operator_class

DEPLOY_RULES = tuple(f"SS3{i:02d}" for i in range(1, 6))
PLAN_RULES = tuple(f"SS3{i}" for i in range(10, 16))

#: Predicted checkpoint overhead ratio above which SS315 fires.
OVERHEAD_CEILING = 0.15

register_rules("deploy", {
    "SS301": (Severity.ERROR,
              "operator class is not process-safe (unimportable or "
              "unpicklable __init__ state)"),
    "SS302": (Severity.ERROR,
              "default snapshot cannot deep-copy __init__ resources "
              "(override the snapshot hooks)"),
    "SS303": (Severity.ERROR,
              "source holds a one-shot iterator and cannot replay "
              "after recovery"),
    "SS304": (Severity.ERROR,
              "partitioned state is not migration-partitionable"),
    "SS305": (Severity.ERROR,
              "module-global state written from operator_function"),
})
register_rules("plan", {
    "SS310": (Severity.ERROR,
              "elastic mode and checkpointing are mutually exclusive"),
    "SS311": (Severity.ERROR,
              "shard placement references unknown operators or shards"),
    "SS312": (Severity.ERROR,
              "shard placement scatters a stateful operator"),
    "SS313": (Severity.ERROR,
              "batch flush deadline exceeds the declared latency budget"),
    "SS314": (Severity.ERROR,
              "adaptive cooldown is shorter than one control period"),
    "SS315": (Severity.WARNING,
              "predicted checkpoint overhead exceeds the ceiling"),
})

#: Modules whose objects held in operator state cannot be pickled or
#: deep-copied: OS-level resources die with the process that owns them.
_RESOURCE_MODULES = frozenset({
    "threading", "_thread", "socket", "subprocess", "multiprocessing",
})
_RESOURCE_PREFIXES = ("threading.", "socket.", "subprocess.",
                      "multiprocessing.")
_FILE_OPENERS = frozenset({"open", "io.open", "os.fdopen", "os.popen",
                           "socket.create_connection"})

#: Mutating methods whose call on a *direct* ``self`` attribute (not a
#: key-indexed alias) evidences monolithic, order-dependent state.
_SEQUENCE_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "push",
    "sort", "reverse", "rotate", "clear",
})
#: Mutating methods that race when called on a shared module container.
_CONTAINER_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "push",
    "add", "update", "setdefault", "pop", "popleft", "popitem",
    "remove", "discard", "clear", "sort", "reverse", "rotate",
})
_MUTABLE_CONTAINERS = (list, dict, set, bytearray, collections.deque,
                       collections.Counter, collections.OrderedDict)


@dataclass(frozen=True)
class DeployFacts:
    """What the deployment analysis established about one class."""

    class_path: str
    #: Whether workers can re-import the class by dotted name.
    importable: bool
    import_evidence: Tuple[str, ...]
    #: ``__init__`` state that cannot cross a pickle boundary.
    init_lambdas: Tuple[str, ...]
    init_resources: Tuple[str, ...]
    init_iterators: Tuple[str, ...]
    snapshot_overridden: bool
    restore_overridden: bool
    #: Writes from operator_function to plain (non-key-indexed) state.
    monolithic_writes: Tuple[str, ...]
    #: Module-global state written from operator_function.
    global_writes: Tuple[str, ...]
    keyed: bool

    @property
    def process_safe(self) -> bool:
        """State survives a pickle/fork boundary and workers can import."""
        return (self.importable and not self.init_lambdas
                and not self.init_resources and not self.init_iterators)

    @property
    def replayable(self) -> bool:
        """Either no one-shot iterators or explicit snapshot hooks."""
        return (not self.init_iterators
                or (self.snapshot_overridden and self.restore_overridden))

    def pickle_evidence(self) -> Tuple[str, ...]:
        return (self.import_evidence + self.init_lambdas
                + self.init_resources + self.init_iterators)


def _import_evidence(cls: type) -> Tuple[str, ...]:
    """Why shard workers could not re-import ``cls`` by dotted name."""
    if cls.__module__ in ("__main__", "builtins"):
        return (f"defined in module {cls.__module__!r} "
                "(workers cannot re-import it)",)
    if "<locals>" in cls.__qualname__:
        return ("defined inside a function body "
                "(not reachable by dotted name)",)
    module = sys.modules.get(cls.__module__)
    target: object = module
    for part in cls.__qualname__.split("."):
        target = getattr(target, part, None)
        if target is None:
            break
    if target is not cls:
        return (f"{cls.__module__}.{cls.__qualname__} does not round-trip "
                "through its module (pickle-by-reference would fail)",)
    return ()


def _resolve(name: str, cls: type) -> Optional[object]:
    """Look up a bare name in the modules of the class MRO."""
    for klass in cls.__mro__:
        module = sys.modules.get(klass.__module__)
        if module is not None and hasattr(module, name):
            return getattr(module, name)
    return None


def _is_lambda(obj: object) -> bool:
    return (isinstance(obj, types.FunctionType)
            and obj.__name__ == "<lambda>")


class _InitVisitor(ast.NodeVisitor):
    """Scan one ``__init__``-reachable method for unpicklable stores.

    Local names bound to suspicious values (lambdas, nested functions,
    resources, one-shot iterators) are tainted so an indirect
    ``predicate = lambda ...; self.predicate = predicate`` is still
    attributed to the instance state.  Parameter names are *unknown*
    runtime values and never flagged — defaults supplied by callers are
    the caller's responsibility.
    """

    def __init__(self, cls: type, node: ast.FunctionDef, offset: int) -> None:
        self.cls = cls
        self.offset = offset
        self.lambdas: List[str] = []
        self.resources: List[str] = []
        self.iterators: List[str] = []
        self.self_calls: Set[str] = set()
        #: Every locally-bound name (params included): shadowed module
        #: names must not be resolved against the module namespace.
        self.local_names: Set[str] = set()
        self.taints: Dict[str, Tuple[str, str]] = {}
        for arg_list in (node.args.posonlyargs, node.args.args,
                         node.args.kwonlyargs):
            for arg in arg_list:
                self.local_names.add(arg.arg)
        for vararg in (node.args.vararg, node.args.kwarg):
            if vararg is not None:
                self.local_names.add(vararg.arg)

    def _line(self, node: ast.AST) -> int:
        return getattr(node, "lineno", 0) + self.offset

    # -- value classification ------------------------------------------
    def _classify(self, value: ast.AST) -> List[Tuple[str, str]]:
        """``(kind, description)`` findings for one assigned expression."""
        findings: List[Tuple[str, str]] = []
        for sub in ast.walk(value):
            if isinstance(sub, ast.Lambda):
                findings.append(("lambda", "lambda expression"))
            elif isinstance(sub, ast.GeneratorExp):
                findings.append(("iterator", "generator expression"))
            elif isinstance(sub, ast.Name):
                findings.extend(self._classify_name(sub.id))
            elif isinstance(sub, ast.Call):
                findings.extend(self._classify_call(sub))
            elif isinstance(sub, ast.Subscript):
                findings.extend(self._classify_subscript(sub))
        return findings

    def _classify_name(self, name: str) -> List[Tuple[str, str]]:
        if name in self.taints:
            return [self.taints[name]]
        if name in self.local_names:
            return []
        resolved = _resolve(name, self.cls)
        if _is_lambda(resolved):
            return [("lambda", f"module-level lambda {name!r}")]
        return []

    def _classify_call(self, call: ast.Call) -> List[Tuple[str, str]]:
        func = call.func
        dotted = _dotted_name(func)
        if dotted in _FILE_OPENERS:
            return [("resource", f"{dotted}() file handle")]
        if dotted == "iter":
            return [("iterator", "iter() one-shot iterator")]
        if dotted is not None and dotted.startswith(_RESOURCE_PREFIXES):
            return [("resource", f"{dotted}() OS resource")]
        if isinstance(func, ast.Name) and func.id not in self.local_names:
            resolved = _resolve(func.id, self.cls)
            if resolved is not None:
                module = getattr(resolved, "__module__", "") or ""
                if module.split(".")[0] in _RESOURCE_MODULES:
                    return [("resource", f"{func.id}() OS resource "
                             f"(from {module})")]
                if inspect.isgeneratorfunction(resolved):
                    return [("iterator",
                             f"generator function {func.id}() result")]
        return []

    def _classify_subscript(self, sub: ast.Subscript) -> List[Tuple[str, str]]:
        if not isinstance(sub.value, ast.Name):
            return []
        name = sub.value.id
        if name in self.local_names:
            return []
        resolved = _resolve(name, self.cls)
        if isinstance(resolved, dict) and any(
                _is_lambda(v) for v in resolved.values()):
            return [("lambda", f"lambda drawn from module table {name!r}")]
        return []

    # -- stores --------------------------------------------------------
    def _record(self, kind: str, desc: str, attr: str, line: int) -> None:
        evidence = f"self.{attr} holds {desc} (line {line})"
        if kind == "lambda":
            self.lambdas.append(evidence)
        elif kind == "resource":
            self.resources.append(evidence)
        else:
            self.iterators.append(evidence)

    def _handle_store(self, target: ast.AST, value: ast.AST,
                      line: int) -> None:
        elements = (target.elts if isinstance(target, (ast.Tuple, ast.List))
                    else [target])
        findings = None
        for element in elements:
            if (isinstance(element, ast.Attribute)
                    and isinstance(element.value, ast.Name)
                    and element.value.id == "self"):
                if findings is None:
                    findings = self._classify(value)
                for kind, desc in findings:
                    self._record(kind, desc, element.attr, line)
            elif isinstance(element, ast.Name):
                self.local_names.add(element.id)
                if findings is None:
                    findings = self._classify(value)
                for kind, desc in findings:
                    self.taints[element.id] = (kind, desc)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_store(target, node.value, self._line(node))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_store(node.target, node.value, self._line(node))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_store(node.target, node.value, self._line(node))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A function defined inside __init__ is closure-bound and
        # unpicklable exactly like a lambda; don't descend into it.
        self.local_names.add(node.name)
        self.taints[node.name] = (
            "lambda", f"locally-defined function {node.name!r}")

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            self.self_calls.add(func.attr)
        self.generic_visit(node)


class _RuntimeVisitor(ast.NodeVisitor):
    """Scan one hot-path method for monolithic and module-global writes.

    *Monolithic* evidence is deliberately narrow — plain ``self.attr``
    stores and order-dependent mutators called directly on a ``self``
    attribute.  Key-indexed stores (``self._windows[key] = ...``) and
    mutations through local aliases fetched per key are the idiomatic
    partitioned-state shapes and stay clean.
    """

    def __init__(self, cls: type, node: ast.FunctionDef, offset: int) -> None:
        self.cls = cls
        self.offset = offset
        self.monolithic: List[str] = []
        self.global_writes: List[str] = []
        self.self_calls: Set[str] = set()
        self.local_names: Set[str] = set()
        self.declared_globals: Set[str] = set()
        for arg_list in (node.args.posonlyargs, node.args.args,
                         node.args.kwonlyargs):
            for arg in arg_list:
                self.local_names.add(arg.arg)
        for vararg in (node.args.vararg, node.args.kwarg):
            if vararg is not None:
                self.local_names.add(vararg.arg)

    def _line(self, node: ast.AST) -> int:
        return getattr(node, "lineno", 0) + self.offset

    def _is_module_container(self, name: str) -> bool:
        if name in self.local_names:
            return False
        resolved = _resolve(name, self.cls)
        return isinstance(resolved, _MUTABLE_CONTAINERS)

    def _check_target(self, target: ast.AST, verb: str, line: int) -> None:
        elements = (target.elts if isinstance(target, (ast.Tuple, ast.List))
                    else [target])
        for element in elements:
            if (isinstance(element, ast.Attribute)
                    and isinstance(element.value, ast.Name)
                    and element.value.id == "self"):
                self.monolithic.append(
                    f"{verb} self.{element.attr} (line {line})")
            elif isinstance(element, ast.Name):
                if element.id in self.declared_globals:
                    self.global_writes.append(
                        f"{verb} global {element.id!r} (line {line})")
                else:
                    self.local_names.add(element.id)
            elif isinstance(element, ast.Subscript):
                base = element.value
                if (isinstance(base, ast.Name)
                        and self._is_module_container(base.id)):
                    self.global_writes.append(
                        f"{verb} module container {base.id!r} "
                        f"(line {line})")

    def visit_Global(self, node: ast.Global) -> None:
        self.declared_globals.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, "assignment to", self._line(node))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target, "assignment to", self._line(node))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, "augmented assignment to",
                           self._line(node))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        line = self._line(node)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if receiver.id == "self":
                    self.self_calls.add(func.attr)
                elif (func.attr in _CONTAINER_MUTATORS
                      and self._is_module_container(receiver.id)):
                    self.global_writes.append(
                        f"mutating call {receiver.id}.{func.attr}() on a "
                        f"module container (line {line})")
            elif (func.attr in _SEQUENCE_MUTATORS
                  and isinstance(receiver, ast.Attribute)
                  and isinstance(receiver.value, ast.Name)
                  and receiver.value.id == "self"):
                self.monolithic.append(
                    f"order-dependent mutating call "
                    f"self.{receiver.attr}.{func.attr}() (line {line})")
        self.generic_visit(node)


def _scan_closure(cls: type, sources: _ClassSources, entry: str,
                  visitor_cls: type) -> List[ast.NodeVisitor]:
    """Run a visitor over ``entry`` and every self-method it reaches."""
    visitors: List[ast.NodeVisitor] = []
    visited: Set[str] = set()
    frontier = [entry]
    while frontier:
        name = frontier.pop()
        if name in visited or name not in sources.methods:
            continue
        visited.add(name)
        node, _, offset = sources.methods[name]
        visitor = visitor_cls(cls, node, offset)
        # Descend from the body, not the function node itself: the
        # FunctionDef handler is for *nested* (closure-bound) functions.
        visitor.generic_visit(node)
        visitors.append(visitor)
        frontier.extend(visitor.self_calls - visited)
    return visitors


@lru_cache(maxsize=None)
def analyze_deploy(cls: type) -> DeployFacts:
    """Deployment-safety facts of one operator class.

    Raises :class:`OSError` when the class source is unavailable;
    callers surface that as SS207 exactly like the opcode pass.
    """
    if not (isinstance(cls, type) and issubclass(cls, Operator)):
        raise TypeError(f"{cls!r} is not an Operator subclass")
    sources = _class_sources(cls)

    lambdas: List[str] = []
    resources: List[str] = []
    iterators: List[str] = []
    for visitor in _scan_closure(cls, sources, "__init__", _InitVisitor):
        lambdas.extend(visitor.lambdas)
        resources.extend(visitor.resources)
        iterators.extend(visitor.iterators)

    monolithic: List[str] = []
    global_writes: List[str] = []
    for visitor in _scan_closure(cls, sources, "operator_function",
                                 _RuntimeVisitor):
        monolithic.extend(visitor.monolithic)
        global_writes.extend(visitor.global_writes)

    import_evidence = _import_evidence(cls)
    return DeployFacts(
        class_path=f"{cls.__module__}.{cls.__qualname__}",
        importable=not import_evidence,
        import_evidence=import_evidence,
        init_lambdas=tuple(lambdas),
        init_resources=tuple(resources),
        init_iterators=tuple(iterators),
        snapshot_overridden=(cls.snapshot_state
                             is not Operator.snapshot_state),
        restore_overridden=(cls.restore_state
                            is not Operator.restore_state),
        monolithic_writes=tuple(monolithic),
        global_writes=tuple(global_writes),
        keyed=sources.keyed,
    )


def analyze_deploy_path(class_path: str) -> DeployFacts:
    """Load an operator class by dotted path and analyze it."""
    return analyze_deploy(load_operator_class(class_path))


def try_analyze_deploy(class_path: Optional[str]) -> Optional[DeployFacts]:
    """Best-effort analysis: ``None`` when loading or parsing fails."""
    if not class_path:
        return None
    try:
        return analyze_deploy_path(class_path)
    except (ImportError, OSError, SyntaxError, TypeError):
        return None


# ----------------------------------------------------------------------
# operator verification (SS301-SS305)
# ----------------------------------------------------------------------
def _operator_diagnostics(topology: Topology,
                          rules: FrozenSet[str]) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for spec in specs_with_code(topology):
        try:
            facts = analyze_deploy_path(spec.operator_class)
        except (ImportError, OSError, SyntaxError, TypeError) as exc:
            findings.append(Diagnostic(
                rule="SS207", severity=Severity.ERROR,
                message=f"operator class cannot be analyzed: {exc}",
                subject=spec.name, location=spec.operator_class,
            ))
            continue
        location = facts.class_path
        is_source = spec.name == topology.source
        hooks_complete = facts.snapshot_overridden and facts.restore_overridden

        if "SS301" in rules and not facts.process_safe:
            findings.append(Diagnostic(
                rule="SS301", severity=Severity.ERROR,
                message=("operator cannot cross a process boundary: "
                         + "; ".join(facts.pickle_evidence()[:3])),
                subject=spec.name, location=location,
            ))
        if "SS302" in rules:
            if facts.snapshot_overridden != facts.restore_overridden:
                missing = ("restore_state" if facts.snapshot_overridden
                           else "snapshot_state")
                findings.append(Diagnostic(
                    rule="SS302", severity=Severity.ERROR,
                    message=(f"overrides only one snapshot hook: {missing} "
                             "is missing, so recovery would restore "
                             "mismatched state"),
                    subject=spec.name, location=location,
                ))
            elif not hooks_complete:
                unsnapshotable = list(facts.init_resources)
                if not is_source:
                    unsnapshotable.extend(facts.init_iterators)
                if unsnapshotable:
                    findings.append(Diagnostic(
                        rule="SS302", severity=Severity.ERROR,
                        message=("default deepcopy snapshot cannot capture "
                                 "__init__ state: "
                                 + "; ".join(unsnapshotable[:3])),
                        subject=spec.name, location=location,
                    ))
        if ("SS303" in rules and is_source and facts.init_iterators
                and not hooks_complete):
            findings.append(Diagnostic(
                rule="SS303", severity=Severity.ERROR,
                message=("source holds a one-shot iterator and does not "
                         "override the snapshot hooks — recovery cannot "
                         "rewind the stream: "
                         + "; ".join(facts.init_iterators[:3])),
                subject=spec.name, location=location,
            ))
        if "SS304" in rules and spec.state is StateKind.PARTITIONED:
            if not facts.keyed:
                findings.append(Diagnostic(
                    rule="SS304", severity=Severity.ERROR,
                    message=("declared partitioned-stateful but the class "
                             "does not override key_of: migration cannot "
                             "split the state by key"),
                    subject=spec.name, location=location,
                ))
            elif facts.monolithic_writes:
                findings.append(Diagnostic(
                    rule="SS304", severity=Severity.ERROR,
                    message=("partitioned state has monolithic (non-keyed) "
                             "writes a migration would tear: "
                             + "; ".join(facts.monolithic_writes[:3])),
                    subject=spec.name, location=location,
                ))
        if "SS305" in rules and facts.global_writes:
            findings.append(Diagnostic(
                rule="SS305", severity=Severity.ERROR,
                message=("module-global state is written from "
                         "operator_function — replicas race and processes "
                         "diverge: " + "; ".join(facts.global_writes[:3])),
                subject=spec.name, location=location,
            ))
    return findings


def _active_rules(backend: str, elastic: bool,
                  checkpointed: bool) -> FrozenSet[str]:
    rules: Set[str] = set()
    if backend == "process":
        rules.update({"SS301", "SS305"})
    if elastic:
        rules.update({"SS304", "SS305"})
    if checkpointed:
        rules.update({"SS302", "SS303"})
    return frozenset(rules)


def verify_deploy(topology: Topology, backend: str = "process",
                  runtime: Optional[object] = None) -> LintReport:
    """Run the operator deployment rules for one target backend.

    ``backend`` is ``"threaded"``, ``"process"`` or ``"elastic"``;
    ``runtime`` is an optional :class:`~repro.runtime.system.RuntimeConfig`
    whose ``elastic``/``checkpoint`` fields widen the active rule set.
    The threaded backend without checkpointing has no deployment
    preconditions and returns an empty report.
    """
    elastic = backend == "elastic" or bool(getattr(runtime, "elastic", False))
    checkpointed = bool(getattr(runtime, "checkpoint", None)
                        or topology.checkpoint)
    rules = _active_rules(backend, elastic, checkpointed)
    findings = _operator_diagnostics(topology, rules) if rules else []
    return LintReport(diagnostics=tuple(findings),
                      subject_name=topology.name, passes=("deploy",))


def deploy_errors(topology: Topology,
                  rules: Sequence[str]) -> List[Diagnostic]:
    """Error findings for the given SS30x rules (the runtime gates).

    SS207 (class unanalyzable) is dropped: absence of evidence is not
    evidence of a deployment hazard, matching ``impure_operators``.
    """
    wanted = frozenset(rules)
    return [d for d in _operator_diagnostics(topology, wanted)
            if d.rule in wanted and d.severity is Severity.ERROR]


def process_unsafe_operators(topology: Topology) -> FrozenSet[str]:
    """Names whose class state cannot cross a process boundary (SS301).

    Operators without a class, or whose analysis fails, are not
    excluded — the absence of evidence is not evidence of a hazard.
    """
    unsafe = set()
    for spec in topology.operators:
        facts = try_analyze_deploy(spec.operator_class)
        if facts is not None and not facts.process_safe:
            unsafe.add(spec.name)
    return frozenset(unsafe)


# ----------------------------------------------------------------------
# plan verification (SS310-SS315)
# ----------------------------------------------------------------------
def _effectively_stateful(spec) -> bool:
    if spec.state is StateKind.STATEFUL:
        return True
    facts = try_analyze(spec.operator_class)
    return facts is not None and facts.inferred is StateKind.STATEFUL


def verify_plan(
    topology: Topology,
    *,
    backend: str = "threaded",
    placement: Optional[Mapping[str, Sequence[int]]] = None,
    shards: Optional[int] = None,
    runtime: Optional[object] = None,
    adaptive: Optional[object] = None,
    source_rate: Optional[float] = None,
    overhead_ceiling: float = OVERHEAD_CEILING,
) -> LintReport:
    """Run the plan/config rules over one deployment triple.

    ``placement`` maps operator names to per-replica shard indices (the
    shape of :attr:`ShardPlacement.by_vertex`); when omitted for the
    process backend with ``shards`` given, the solver-driven placement
    is computed and checked instead.  ``adaptive`` is an optional
    :class:`~repro.runtime.adaptive.AdaptiveConfig`.
    """
    findings: List[Diagnostic] = []
    elastic = backend == "elastic" or bool(getattr(runtime, "elastic", False))
    checkpoint = (getattr(runtime, "checkpoint", None)
                  or topology.checkpoint)

    if elastic and checkpoint is not None:
        findings.append(Diagnostic(
            rule="SS310", severity=Severity.ERROR,
            message=("elastic mode is incompatible with checkpointing: "
                     "the barrier channel set is fixed at wiring time"),
            subject=topology.name,
        ))

    if placement is None and backend == "process" and shards:
        from repro.codegen.deployment import shard_placement
        placement = shard_placement(topology, shards=shards).by_vertex

    if placement is not None:
        indices = [s for assignment in placement.values()
                   for s in assignment]
        shard_count = shards if shards else (max(indices) + 1 if indices
                                             else 1)
        for name in sorted(placement):
            assignment = tuple(placement[name])
            if name not in topology:
                findings.append(Diagnostic(
                    rule="SS311", severity=Severity.ERROR,
                    message="placement names an operator the topology "
                            "does not contain",
                    subject=name,
                ))
                continue
            spec = topology.operator(name)
            if len(assignment) != spec.replication:
                findings.append(Diagnostic(
                    rule="SS311", severity=Severity.ERROR,
                    message=(f"placement for {name!r} must name "
                             f"{spec.replication} shards, "
                             f"got {len(assignment)}"),
                    subject=name,
                ))
            elif any(not 0 <= s < shard_count for s in assignment):
                findings.append(Diagnostic(
                    rule="SS311", severity=Severity.ERROR,
                    message=(f"placement for {name!r} uses a shard outside "
                             f"[0, {shard_count})"),
                    subject=name,
                ))
            elif (len(set(assignment)) > 1
                    and _effectively_stateful(spec)):
                findings.append(Diagnostic(
                    rule="SS312", severity=Severity.ERROR,
                    message=("placement scatters a stateful operator over "
                             f"shards {sorted(set(assignment))}: monolithic "
                             "state cannot be split across processes"),
                    subject=name,
                ))
        for name in topology.names:
            if name not in placement:
                findings.append(Diagnostic(
                    rule="SS311", severity=Severity.ERROR,
                    message="operator has no shard assignment",
                    subject=name,
                ))

    budget = topology.latency_budget
    if budget is not None:
        for edge in topology.edges:
            if edge.batch is not None and edge.batch.flush_timeout > budget:
                findings.append(Diagnostic(
                    rule="SS313", severity=Severity.ERROR,
                    message=(f"batch flush deadline "
                             f"{edge.batch.flush_timeout:g}s exceeds the "
                             f"latency budget {budget:g}s: an idle sender "
                             "flushes at once, but a continuously busy one "
                             "may hold a partial batch that long"),
                    subject=f"{edge.source}->{edge.target}",
                ))
        if (getattr(runtime, "batch_size", 1) > 1
                and getattr(runtime, "batch_flush_timeout", 0.0) > budget):
            findings.append(Diagnostic(
                rule="SS313", severity=Severity.ERROR,
                message=(f"global batch flush deadline "
                         f"{runtime.batch_flush_timeout:g}s exceeds the "
                         f"latency budget {budget:g}s (the worst case "
                         "under a continuously busy sender)"),
                subject=topology.name,
            ))

    if adaptive is not None and getattr(adaptive, "cooldown_ticks", 1) < 1:
        findings.append(Diagnostic(
            rule="SS314", severity=Severity.ERROR,
            message=("adaptive cooldown of 0 ticks re-plans faster than "
                     "one control period: reconfigurations oscillate "
                     "before their effect is measurable"),
            subject=topology.name,
        ))

    if checkpoint is not None and checkpoint.snapshot_overhead > 0.0:
        from repro.core.solver import predict_checkpoint
        from repro.core.graph import TopologyError
        try:
            prediction = predict_checkpoint(topology, checkpoint=checkpoint,
                                            source_rate=source_rate)
        except TopologyError:
            prediction = None
        if (prediction is not None
                and prediction.overhead_ratio > overhead_ceiling):
            findings.append(Diagnostic(
                rule="SS315", severity=Severity.WARNING,
                message=(f"predicted checkpoint overhead "
                         f"{prediction.overhead_ratio:.1%} exceeds the "
                         f"{overhead_ceiling:.0%} ceiling: lengthen the "
                         "interval or cheapen the snapshots"),
                subject=topology.name,
            ))

    return LintReport(diagnostics=tuple(findings),
                      subject_name=topology.name, passes=("plan",))
