"""Pass 2 — the operator-code analyzer: what the code *actually* does.

The fission algorithm (paper Algorithm 2) trusts the declared
:class:`~repro.core.graph.StateKind`: a ``STATELESS`` declaration makes
an operator replicable with shuffle routing.  If the implementation
secretly keeps state, replication silently computes wrong results —
each replica sees a fraction of the stream.  This pass loads each
spec's ``operator_class`` and infers the truth from the AST:

* **state inference** — writes to ``self.*`` reachable from
  ``operator_function`` (including through ``self``-method calls,
  mutating container methods like ``append``/``push``/``setdefault``,
  and local aliases of ``self`` attributes) imply state.  With an
  overridden ``key_of`` the state is assumed partitioned by that key;
  without one it is monolithic.  No reachable writes imply stateless.
* **fission-unsafe patterns** — mutable class-level attributes (shared
  across replicas: a static race), nondeterminism (module-level
  ``random``, wall-clock time, builtin ``hash``/``id``, set iteration)
  that breaks DES/runtime replay conformance, impure ``key_of``
  (routing must be a pure function of the item), and I/O side effects
  that break restart-under-supervision semantics.

Rules
-----
======  ========  ==========================================================
SS201   error     declared StateKind weaker than the code's inferred one
                  (replication would split live state)
SS202   info      declared StateKind stricter than inferred (a missed
                  fission opportunity, not a correctness problem)
SS203   error     mutable class-level attribute shared across replicas
SS204   warning   nondeterminism reachable from operator_function
SS205   warning   impure key_of (writes state or is nondeterministic)
SS206   warning   I/O side effects reachable from operator_function
SS207   error     operator class cannot be loaded or its source analyzed
======  ========  ==========================================================
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.diagnostics import (Diagnostic, LintReport, Severity,
                                        register_rules)
from repro.core.graph import (META_OPERATOR_CLASS, OperatorSpec, StateKind,
                              Topology)
from repro.operators.base import KeyedOperator, Operator, load_operator_class

OPCODE_RULES = tuple(f"SS2{i:02d}" for i in range(1, 8))

register_rules("opcode", {
    "SS201": (Severity.ERROR,
              "declared StateKind weaker than the code's inferred one"),
    "SS202": (Severity.INFO,
              "declared StateKind stricter than inferred"),
    "SS203": (Severity.ERROR,
              "mutable class-level attribute shared across replicas"),
    "SS204": (Severity.WARNING,
              "nondeterminism reachable from operator_function"),
    "SS205": (Severity.WARNING, "impure key_of"),
    "SS206": (Severity.WARNING,
              "I/O side effects reachable from operator_function"),
    "SS207": (Severity.ERROR,
              "operator class cannot be loaded or analyzed"),
})

#: Method names whose call mutates the receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "add", "update", "setdefault", "push",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "sort", "reverse", "rotate",
})

#: Constructors whose result at class scope is shared mutable state.
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "Counter",
    "OrderedDict", "bytearray",
})

#: Dotted-call prefixes that are nondeterministic across runs/replicas.
_NONDET_PREFIXES = (
    "random.", "time.time", "time.monotonic", "time.perf_counter",
    "os.urandom", "uuid.", "secrets.",
)
#: Seeded construction is reproducible; don't flag it.
_NONDET_EXEMPT = frozenset({"random.Random"})
_NONDET_BUILTINS = frozenset({"hash", "id"})

#: Dotted-call prefixes with side effects outside the operator's state.
_IO_PREFIXES = (
    "os.system", "os.popen", "os.remove", "os.unlink", "os.makedirs",
    "os.rmdir", "os.rename", "subprocess.", "socket.", "requests.",
    "urllib.", "shutil.", "sys.stdout", "sys.stderr",
)
_IO_BUILTINS = frozenset({"open", "print", "input"})

#: StateKind ordered by strictness (how much fission it permits).
_RANK = {StateKind.STATELESS: 0, StateKind.PARTITIONED: 1,
         StateKind.STATEFUL: 2}


def state_rank(kind: StateKind) -> int:
    """Strictness of a state kind (stateless < partitioned < stateful)."""
    return _RANK[kind]


@dataclass(frozen=True)
class OperatorCodeFacts:
    """What the AST analysis established about one operator class."""

    class_path: str
    declared: StateKind
    inferred: StateKind
    #: Evidence of state writes reachable from operator_function.
    writes: Tuple[str, ...]
    #: Mutable class-level attributes (shared across replicas).
    mutable_class_attrs: Tuple[str, ...]
    #: Nondeterministic calls reachable from operator_function.
    nondeterministic: Tuple[str, ...]
    #: Evidence that key_of is impure (writes or nondeterminism).
    impure_key_of: Tuple[str, ...]
    #: I/O side effects reachable from operator_function.
    io_calls: Tuple[str, ...]
    #: Whether key_of is overridden somewhere below the Operator base.
    keyed: bool

    @property
    def mismatch(self) -> bool:
        """Code is provably more stateful than the class declares."""
        return _RANK[self.inferred] > _RANK[self.declared]

    @property
    def over_declared(self) -> bool:
        """Declaration is stricter than anything the code shows."""
        return _RANK[self.inferred] < _RANK[self.declared]

    @property
    def pure(self) -> bool:
        """Free of nondeterminism and I/O (fusion-safe in any order)."""
        return not (self.nondeterministic or self.io_calls)

    def evidence(self) -> str:
        return "; ".join(self.writes[:3]) or "no state writes found"


class _FunctionFacts:
    """Per-function findings of one visitor run."""

    def __init__(self) -> None:
        self.writes: List[str] = []
        self.nondet: List[str] = []
        self.io: List[str] = []
        self.self_calls: Set[str] = set()


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FunctionVisitor(ast.NodeVisitor):
    """Scan one method body for writes, nondeterminism and I/O.

    ``aliases`` tracks local names bound from expressions that touch
    ``self`` attributes (directly or through other aliases), so
    mutations through ``window = self._windows[side]; window.append(x)``
    are still attributed to the operator's state.
    """

    def __init__(self, offset: int) -> None:
        self.offset = offset
        self.facts = _FunctionFacts()
        self.aliases: Set[str] = set()

    # -- helpers -------------------------------------------------------
    def _line(self, node: ast.AST) -> int:
        return getattr(node, "lineno", 0) + self.offset

    def _touches_state(self, node: ast.AST) -> bool:
        """Whether an expression reads a self attribute or an alias."""
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                return True
            if isinstance(sub, ast.Name) and sub.id in self.aliases:
                return True
        return False

    def _target_state_name(self, target: ast.AST) -> Optional[str]:
        """The state description a store-target mutates, if any."""
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                return f"self.{target.attr}"
            if self._touches_state(target.value):
                return _dotted_name(target) or "aliased state"
        if isinstance(target, ast.Subscript):
            if self._touches_state(target.value):
                return (_dotted_name(target.value) or "aliased state") + "[...]"
        return None

    def _record_aliases(self, targets: List[ast.AST], value: ast.AST) -> None:
        if not self._touches_state(value):
            return
        for target in targets:
            elements = (target.elts if isinstance(target, (ast.Tuple, ast.List))
                        else [target])
            for element in elements:
                if isinstance(element, ast.Name):
                    self.aliases.add(element.id)

    # -- stores --------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            elements = (target.elts if isinstance(target, (ast.Tuple, ast.List))
                        else [target])
            for element in elements:
                name = self._target_state_name(element)
                if name is not None:
                    self.facts.writes.append(
                        f"assignment to {name} (line {self._line(node)})")
        self._record_aliases(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = self._target_state_name(node.target)
        if name is not None:
            self.facts.writes.append(
                f"assignment to {name} (line {self._line(node)})")
        if node.value is not None:
            self._record_aliases([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = self._target_state_name(node.target)
        if name is not None:
            self.facts.writes.append(
                f"augmented assignment to {name} (line {self._line(node)})")
        self._record_aliases([node.target], node.value)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            name = self._target_state_name(target)
            if name is not None:
                self.facts.writes.append(
                    f"deletion of {name} (line {self._line(node)})")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        line = self._line(node)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "next" and any(self._touches_state(a)
                                         for a in node.args):
                self.facts.writes.append(
                    f"next() on held iterator (line {line})")
            if func.id in _NONDET_BUILTINS:
                self.facts.nondet.append(
                    f"builtin {func.id}() (line {line})")
            if func.id in _IO_BUILTINS:
                self.facts.io.append(f"{func.id}() (line {line})")
        elif isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name) and func.value.id == "self"):
                self.facts.self_calls.add(func.attr)
            elif (func.attr in _MUTATING_METHODS
                  and self._touches_state(func.value)):
                receiver = _dotted_name(func.value) or "aliased state"
                self.facts.writes.append(
                    f"mutating call {receiver}.{func.attr}() (line {line})")
            dotted = _dotted_name(func)
            if dotted is not None and dotted not in _NONDET_EXEMPT:
                if dotted.startswith(_NONDET_PREFIXES):
                    self.facts.nondet.append(f"{dotted}() (line {line})")
                if dotted.startswith(_IO_PREFIXES):
                    self.facts.io.append(f"{dotted}() (line {line})")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        iterated = node.iter
        if isinstance(iterated, ast.Set) or (
                isinstance(iterated, ast.Call)
                and isinstance(iterated.func, ast.Name)
                and iterated.func.id == "set"):
            self.facts.nondet.append(
                "iteration over a set (order is hash-dependent) "
                f"(line {self._line(node)})")
        self._record_aliases([node.target], node.iter)
        self.generic_visit(node)


@dataclass(frozen=True)
class _ClassSources:
    """Parsed method table and class-attribute findings of one MRO."""

    methods: Dict[str, Tuple[ast.FunctionDef, str, int]]
    mutable_class_attrs: Tuple[str, ...]
    keyed: bool


def _class_sources(cls: type) -> _ClassSources:
    """Merge method definitions over the MRO below the Operator bases."""
    methods: Dict[str, Tuple[ast.FunctionDef, str, int]] = {}
    mutable: List[str] = []
    keyed = False
    # Base-first so derived definitions override inherited ones.
    for klass in reversed(cls.__mro__):
        if klass in (object, Operator) or klass.__module__ == "builtins":
            continue
        if not issubclass(klass, Operator):
            continue  # mixins outside the operator hierarchy
        try:
            lines, first = inspect.getsourcelines(klass)
        except (OSError, TypeError):
            raise OSError(
                f"source of {klass.__module__}.{klass.__qualname__} is not "
                "available for analysis")
        tree = ast.parse(textwrap.dedent("".join(lines)))
        class_node = tree.body[0]
        if not isinstance(class_node, ast.ClassDef):
            raise OSError(
                f"{klass.__module__}.{klass.__qualname__}: source does not "
                "start with a class definition")
        offset = first - 1
        for node in class_node.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[node.name] = (node, klass.__qualname__, offset)
                if node.name == "key_of":
                    keyed = True
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                if value is None or not _is_mutable_literal(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        mutable.append(
                            f"{klass.__qualname__}.{target.id} "
                            f"(line {node.lineno + offset})")
    return _ClassSources(methods=methods,
                         mutable_class_attrs=tuple(mutable), keyed=keyed)


def _is_mutable_literal(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = (value.func.id if isinstance(value.func, ast.Name)
                else value.func.attr if isinstance(value.func, ast.Attribute)
                else None)
        return name in _MUTABLE_FACTORIES
    return False


def _closure_facts(sources: _ClassSources, entry: str) -> _FunctionFacts:
    """Merged findings of ``entry`` and every self-method it reaches."""
    merged = _FunctionFacts()
    visited: Set[str] = set()
    frontier = [entry]
    while frontier:
        name = frontier.pop()
        if name in visited or name not in sources.methods:
            continue
        visited.add(name)
        node, _, offset = sources.methods[name]
        visitor = _FunctionVisitor(offset)
        visitor.visit(node)
        merged.writes.extend(visitor.facts.writes)
        merged.nondet.extend(visitor.facts.nondet)
        merged.io.extend(visitor.facts.io)
        frontier.extend(visitor.facts.self_calls - visited)
    return merged


@lru_cache(maxsize=None)
def analyze_operator_class(cls: type) -> OperatorCodeFacts:
    """Infer the true StateKind and safety facts of an operator class.

    Raises :class:`OSError` when the class source is unavailable (e.g.
    classes defined in a REPL); callers surface that as SS207.
    """
    if not (isinstance(cls, type) and issubclass(cls, Operator)):
        raise TypeError(f"{cls!r} is not an Operator subclass")
    sources = _class_sources(cls)
    facts = _closure_facts(sources, "operator_function")

    if facts.writes:
        inferred = (StateKind.PARTITIONED if sources.keyed
                    else StateKind.STATEFUL)
    else:
        inferred = StateKind.STATELESS

    impure_key_of: Tuple[str, ...] = ()
    if sources.keyed:
        key_facts = _closure_facts(sources, "key_of")
        impure_key_of = tuple(key_facts.writes + key_facts.nondet
                              + key_facts.io)

    return OperatorCodeFacts(
        class_path=f"{cls.__module__}.{cls.__qualname__}",
        declared=cls.state,
        inferred=inferred,
        writes=tuple(facts.writes),
        mutable_class_attrs=sources.mutable_class_attrs,
        nondeterministic=tuple(facts.nondet),
        impure_key_of=impure_key_of,
        io_calls=tuple(facts.io),
        keyed=sources.keyed,
    )


def analyze_class_path(class_path: str) -> OperatorCodeFacts:
    """Load an operator class by dotted path and analyze it."""
    return analyze_operator_class(load_operator_class(class_path))


def try_analyze(class_path: Optional[str]) -> Optional[OperatorCodeFacts]:
    """Best-effort analysis: ``None`` when loading or parsing fails."""
    if not class_path:
        return None
    try:
        return analyze_class_path(class_path)
    except (ImportError, OSError, SyntaxError, TypeError):
        return None


def specs_with_code(topology: Topology) -> List[OperatorSpec]:
    """The specs that name a class to analyze.

    A fused vertex names the meta-operator marker instead: there is no
    class behind it, and its members were analyzed before fusion.
    """
    return [spec for spec in topology.operators
            if spec.operator_class not in (None, "", META_OPERATOR_CLASS)]


def verify_code(topology: Topology) -> LintReport:
    """Run the opcode rules over every spec that names a class."""
    findings: List[Diagnostic] = []
    for spec in specs_with_code(topology):
        try:
            facts = analyze_class_path(spec.operator_class)
        except (ImportError, OSError, SyntaxError, TypeError) as exc:
            findings.append(Diagnostic(
                rule="SS207", severity=Severity.ERROR,
                message=f"operator class cannot be analyzed: {exc}",
                subject=spec.name, location=spec.operator_class,
            ))
            continue
        location = facts.class_path

        declared = spec.state
        if _RANK[facts.inferred] > _RANK[declared]:
            findings.append(Diagnostic(
                rule="SS201", severity=Severity.ERROR,
                message=(f"declared {declared.value} but the code is "
                         f"{facts.inferred.value}: {facts.evidence()}; "
                         "replication would split live state"),
                subject=spec.name, location=location,
            ))
        elif _RANK[facts.inferred] < _RANK[declared]:
            findings.append(Diagnostic(
                rule="SS202", severity=Severity.INFO,
                message=(f"declared {declared.value} but no evidence of "
                         f"more than {facts.inferred.value} code; a "
                         "stricter declaration forfeits fission"),
                subject=spec.name, location=location,
            ))
        for attr in facts.mutable_class_attrs:
            findings.append(Diagnostic(
                rule="SS203", severity=Severity.ERROR,
                message=(f"mutable class-level attribute {attr} is shared "
                         "by every replica (a data race under fission)"),
                subject=spec.name, location=location,
            ))
        if facts.nondeterministic:
            findings.append(Diagnostic(
                rule="SS204", severity=Severity.WARNING,
                message=("nondeterminism breaks replay conformance: "
                         + "; ".join(facts.nondeterministic[:3])),
                subject=spec.name, location=location,
            ))
        if facts.impure_key_of:
            findings.append(Diagnostic(
                rule="SS205", severity=Severity.WARNING,
                message=("key_of must be a pure function of the item for "
                         "keyed routing to be stable: "
                         + "; ".join(facts.impure_key_of[:3])),
                subject=spec.name, location=location,
            ))
        if facts.io_calls:
            findings.append(Diagnostic(
                rule="SS206", severity=Severity.WARNING,
                message=("I/O side effects break restart-under-supervision "
                         "semantics: " + "; ".join(facts.io_calls[:3])),
                subject=spec.name, location=location,
            ))
    return LintReport(diagnostics=tuple(findings),
                      subject_name=topology.name, passes=("opcode",))


def impure_operators(topology: Topology) -> FrozenSet[str]:
    """Names whose code shows nondeterminism or I/O (fusion-unsafe).

    Fusing such an operator changes its scheduling and failure
    isolation, so automatic fusion keeps them standalone.  Operators
    without a class, or whose analysis fails, are not excluded — the
    absence of evidence is not evidence of impurity.
    """
    impure = set()
    for spec in topology.operators:
        facts = try_analyze(spec.operator_class)
        if facts is not None and not facts.pure:
            impure.add(spec.name)
    return frozenset(impure)
