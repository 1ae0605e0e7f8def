"""Per-file analysis summaries — the call graph's unit of exchange.

The whole-program pass (``repro.lint.graph.builder``) never touches an
AST: each file is condensed — in the same pass that runs the per-file
rules, possibly inside a ``--jobs`` worker process — into a
:class:`ModuleSummary` of plain tuples and strings.  Summaries pickle
cheaply across the process-pool boundary, and the single-process graph
phase assembles them into a project-wide symbol table afterwards.

This module is deliberately a *leaf*: it imports only the standard
library (plus the equally-leaf effect model in
:mod:`repro.lint.effects.model`), so the engine, the rules, and the
builder can all depend on it without cycles.

What a summary records per function (``<module>`` stands for
module-level statements, including class bodies):

* every call, with the literal dotted text (``self.run``), the
  import-canonical form (``time.time``) when the base name was bound
  by an import, the receiver's constructor class when the receiver is
  a local built in the same scope (``sim = Simulator(...); sim.run()``),
  whether it passes any argument at all (``random.Random()`` vs
  ``random.Random(seed)``), and a descriptor of each argument that
  might be a first-order callable;
* determinism-sink facts that are not calls: ``os.environ`` reads and
  built-in ``hash()`` calls;
* pool-safety facts: ``global`` writes and telemetry-emitting calls
  (``*.emit(...)`` or a ``TelemetryWriter`` construction);
* telemetry event sites (dict literals with an ``"event"`` key,
  ``read_telemetry(event=...)`` filters).

Imports are resolved locally, including *relative* imports (against
the module's dotted name, when the file lies on a ``repro/`` spine)
and star imports (recorded as such — the builder treats them as a
fallback namespace, and documents them as a blind spot).
``if TYPE_CHECKING:`` bodies are skipped entirely: they create no
runtime dependency, so they must create no call-graph edge.

The module also owns the helpers every extractor shares — the dotted
name of a Name/Attribute chain, the ``TYPE_CHECKING`` test,
assignment-target names, and the function
locators :func:`analyze_functions` and :func:`nested_sites` — so the
qualname scheme that joins summaries, effects, and unit facts is
defined here and nowhere else.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ArgRef",
    "CallRef",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "MODULE_SCOPE",
    "analyze_functions",
    "dotted_name",
    "extract_summary",
    "is_type_checking_test",
    "module_name_for_path",
    "nested_sites",
    "target_names",
]

#: Qualname of the synthetic function holding module-level statements.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class ArgRef:
    """One argument of a call, described just enough to spot callables.

    ``kind`` is ``"name"`` / ``"attribute"`` (potentially a first-order
    callable reference), ``"lambda"``, ``"call"``, ``"constant"``, or
    ``"other"``.  ``dotted``/``canonical`` mirror the fields on
    :class:`CallRef` and are only set for name/attribute arguments.
    """

    kind: str
    dotted: Optional[str] = None
    canonical: Optional[str] = None


@dataclass(frozen=True)
class CallRef:
    """One call expression inside a function body."""

    dotted: Optional[str]
    canonical: Optional[str]
    receiver_class: Optional[str]
    lineno: int
    args: Tuple[ArgRef, ...] = ()
    #: True when the call passes any positional or keyword argument.
    has_args: bool = False


@dataclass(frozen=True)
class FunctionSummary:
    """One function, method, or the synthetic module scope."""

    qualname: str
    lineno: int
    #: True for a plain ``def`` directly at module level — the only
    #: shape that pickles across the process-pool boundary.
    is_toplevel: bool
    class_name: Optional[str]
    calls: Tuple[CallRef, ...]
    env_reads: Tuple[int, ...] = ()
    hash_calls: Tuple[int, ...] = ()
    global_writes: Tuple[Tuple[str, int], ...] = ()
    emit_calls: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ClassSummary:
    """One class: its name (``Outer.Inner`` for a class nested in a
    class body, the bare name otherwise), its bases (canonical when
    imported), the names of its directly defined methods, its ``__slots__``
    entries (``None`` when the class declares none), and whether it is
    a ``@dataclass(frozen=True)`` — the two shapes whose state the
    mutation-after-freeze rules protect."""

    name: str
    lineno: int
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    slots: Optional[Tuple[str, ...]] = None
    frozen: bool = False


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project graph needs to know about one file."""

    path: str
    module: Optional[str]
    layer: str
    imports: Tuple[Tuple[str, str], ...]
    star_imports: Tuple[str, ...]
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassSummary, ...]
    #: Module-level ``NAME = other_name`` aliases (callable re-exports).
    aliases: Tuple[Tuple[str, str], ...]
    #: Module-level ``NAME = ("a", "b")`` string tuples/lists — how the
    #: pool-safety pass finds ``POOL_BOUNDARY`` annotations.
    string_tuples: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: ``(event_name, "emit"|"filter", lineno)`` telemetry references.
    event_sites: Tuple[Tuple[str, str, int], ...] = ()
    defines_event_schemas: bool = False
    #: Per-function local effect records (the dataflow half of the
    #: whole-program pass); see :mod:`repro.lint.effects`.  Extracted
    #: in the same ``--jobs`` worker pass as everything else and keyed
    #: by the same qualnames as :attr:`functions`.
    effects: Tuple["FunctionEffects", ...] = ()  # noqa: F821
    #: Per-function local unit facts (symbolic terms for returns,
    #: arguments, attribute writes, checks, telemetry emits); the
    #: input of the interprocedural unit fixpoint in
    #: :mod:`repro.lint.dimflow`.  ``None`` only on summaries built by
    #: pre-dimflow callers.
    units: Optional["ModuleUnits"] = None  # noqa: F821


def module_name_for_path(display_path: str) -> Optional[str]:
    """Dotted module name of a file lying on a ``repro/`` spine.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``.../fixtures/RPR601/bad/repro/clockutil.py`` -> ``repro.clockutil``
    (fixture corpora embed the spine so layer- and module-scoped logic
    sees them exactly as it sees the real tree).  ``__init__.py`` maps
    to its package.  Files with no ``repro`` ancestor return ``None``
    — they still participate in the graph, namespaced by path.
    """
    parts = display_path.replace("\\", "/").split("/")
    if not parts or not parts[-1].endswith(".py"):
        return None
    anchor = None
    for index, part in enumerate(parts[:-1]):
        if part == "repro":
            anchor = index
    if anchor is None:
        return None
    tail = list(parts[anchor:-1])
    stem = parts[-1][: -len(".py")]
    if stem != "__init__":
        tail.append(stem)
    return ".".join(tail)


class _Bindings:
    """Module-local name -> canonical dotted path, imports only.

    Names never bound by an import resolve to ``None``, so a local that
    merely shadows a module name (``time = 3``) cannot pass for it,
    while ``from time import time as now`` cannot dodge a sink table.
    Relative imports resolve against the module's own dotted name;
    star imports are recorded separately.
    """

    def __init__(self, module: Optional[str], is_package: bool) -> None:
        self.map: Dict[str, str] = {}
        self.stars: List[str] = []
        self._module = module
        self._is_package = is_package

    def _resolve_level(self, level: int) -> Optional[str]:
        if self._module is None:
            return None
        parts = self._module.split(".")
        if not self._is_package:
            parts = parts[:-1]
        drop = level - 1
        if drop > len(parts):
            return None
        base = parts[: len(parts) - drop]
        return ".".join(base) if base else None

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else local
            self.map[local] = canonical

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._resolve_level(node.level)
            if base is None:
                return
            module = f"{base}.{node.module}" if node.module else base
        else:
            if node.module is None:
                return
            module = node.module
        for alias in node.names:
            if alias.name == "*":
                if module not in self.stars:
                    self.stars.append(module)
                continue
            local = alias.asname or alias.name
            self.map[local] = f"{module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        chain: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.map.get(current.id)
        if base is None:
            return None
        chain.append(base)
        return ".".join(reversed(chain))


def dotted_name(node: ast.AST) -> Optional[str]:
    """Literal dotted text of a Name/Attribute chain (no import logic)."""
    chain: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    chain.append(current.id)
    return ".".join(reversed(chain))


def _class_slots(node: ast.ClassDef) -> Optional[Tuple[str, ...]]:
    """String entries of a class's ``__slots__``, or ``None``."""
    for statement in node.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                names: List[str] = []
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.append(element.value)
                return tuple(names)
    return None


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    """``@dataclass(frozen=True)`` (or ``@dataclasses.dataclass(...)``)."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if dotted_name(decorator.func) not in ("dataclass", "dataclasses.dataclass"):
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def is_type_checking_test(node: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    return (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING") or (
        isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"
    )


def target_names(target: ast.expr) -> List[str]:
    """Names bound by an assignment/loop target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(target_names(element))
        return names
    return []


def _module_imports(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level import statements, conditional blocks included."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and is_type_checking_test(node.test):
            yield from _module_imports(node.orelse)
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for name in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, name, ()))
            for handler in getattr(node, "handlers", ()):
                yield from _module_imports(handler.body)


#: ``(function node, qualname, enclosing class name)``.
FunctionSite = Tuple[ast.AST, str, Optional[str]]


def nested_sites(
    node: ast.stmt, qualname: str, class_name: Optional[str]
) -> List[FunctionSite]:
    """Functions a ``def``/``class`` statement in function ``qualname``
    introduces: the nested function itself, or the methods of a
    function-local class — both prefixed by the enclosing qualname."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(node, f"{qualname}.{node.name}", class_name)]
    return [
        (child, f"{qualname}.{child.name}", node.name)  # type: ignore[attr-defined]
        for child in getattr(node, "body", ())
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _function_sites(
    body: Sequence[ast.stmt], class_stack: Tuple[str, ...], out: List[FunctionSite]
) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if class_stack:
                out.append(
                    (node, ".".join(class_stack) + "." + node.name, class_stack[-1])
                )
            else:
                out.append((node, node.name, None))
        elif isinstance(node, ast.ClassDef):
            _function_sites(node.body, class_stack + (node.name,), out)
        elif isinstance(node, ast.If) and is_type_checking_test(node.test):
            _function_sites(node.orelse, class_stack, out)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            # Conditionally-defined functions still exist at runtime;
            # they get facts under the same names.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    _function_sites([child], class_stack, out)


def analyze_functions(tree: ast.Module, analyzer_cls: type, bindings: "_Bindings") -> List:
    """Run one per-function analyzer class over every function of a file.

    ``analyzer_cls(node, qualname, class_name, bindings)`` must have a
    ``run()`` method and, once run, a ``nested`` list of further
    ``(node, qualname, class_name)`` sites it met (nested defs and
    methods of function-local classes), which are analyzed in turn.
    Functions and methods get the qualnames :func:`extract_summary`
    gives them, so every extractor's records join the project graph by
    ``namespace::qualname``.
    """
    sites: List[FunctionSite] = []
    _function_sites(tree.body, (), sites)
    pending = deque(sites)
    results = []
    while pending:
        instance = analyzer_cls(*pending.popleft(), bindings)
        results.append(instance.run())  # type: ignore[attr-defined]
        pending.extend(instance.nested)  # type: ignore[attr-defined]
    return results


_ENV_READS = frozenset({"os.environ", "os.getenv", "os.environb"})


@dataclass
class _Scope:
    """Mutable accumulator for one function scope (or the module scope)."""

    qualname: str
    lineno: int
    is_toplevel: bool
    class_name: Optional[str]
    calls: List[CallRef] = field(default_factory=list)
    env_reads: List[int] = field(default_factory=list)
    hash_calls: List[int] = field(default_factory=list)
    global_names: List[str] = field(default_factory=list)
    global_writes: List[Tuple[str, int]] = field(default_factory=list)
    emit_calls: List[int] = field(default_factory=list)
    #: Locals built by calling something resolvable: ``sim =
    #: Simulator(...)`` binds ``sim`` to the constructor's canonical.
    ctor_locals: Dict[str, str] = field(default_factory=dict)

    def freeze(self) -> FunctionSummary:
        return FunctionSummary(
            qualname=self.qualname,
            lineno=self.lineno,
            is_toplevel=self.is_toplevel,
            class_name=self.class_name,
            calls=tuple(self.calls),
            env_reads=tuple(self.env_reads),
            hash_calls=tuple(self.hash_calls),
            global_writes=tuple(self.global_writes),
            emit_calls=tuple(self.emit_calls),
        )


class _Extractor:
    def __init__(self, bindings: _Bindings) -> None:
        self.bindings = bindings
        self.functions: List[FunctionSummary] = []
        self.classes: List[ClassSummary] = []
        self.aliases: List[Tuple[str, str]] = []
        self.string_tuples: List[Tuple[str, Tuple[str, ...]]] = []
        self.event_sites: List[Tuple[str, str, int]] = []
        self.defines_event_schemas = False

    # -- entry -----------------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        # A function body runs after the whole module body did, so a
        # module-level import binds its name there wherever it sits in
        # the file (late imports included).
        for node in _module_imports(tree.body):
            if isinstance(node, ast.Import):
                self.bindings.add_import(node)
            else:
                self.bindings.add_import_from(node)  # type: ignore[arg-type]
        module_scope = _Scope(
            qualname=MODULE_SCOPE, lineno=1, is_toplevel=False, class_name=None
        )
        for node in tree.body:
            self._statement(node, module_scope, class_stack=())
        self.functions.append(module_scope.freeze())

    # -- statement dispatch ----------------------------------------------

    def _statement(
        self, node: ast.stmt, scope: _Scope, class_stack: Tuple[str, ...]
    ) -> None:
        if isinstance(node, ast.Import):
            self.bindings.add_import(node)
            return
        if isinstance(node, ast.ImportFrom):
            self.bindings.add_import_from(node)
            return
        if isinstance(node, ast.If) and is_type_checking_test(node.test):
            # Type-only blocks vanish at runtime: no imports, no edges.
            for orelse in node.orelse:
                self._statement(orelse, scope, class_stack)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorator expressions run in the *enclosing* scope.
            for decorator in node.decorator_list:
                self._expression(decorator, scope)
            self._function(node, scope, class_stack)
            return
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                self._expression(decorator, scope)
            self._class(node, scope, class_stack)
            return
        if isinstance(node, ast.Global):
            scope.global_names.extend(node.names)
            return
        if not class_stack and scope.qualname == MODULE_SCOPE:
            self._module_level_assign(node)
        self._track_assignments(node, scope)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            # ``with Ctor(...) as name:`` binds like ``name = Ctor(...)``
            # — the idiomatic way a ProcessPoolExecutor enters scope.
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name) and isinstance(
                    item.context_expr, ast.Call
                ):
                    canonical = self.bindings.resolve(
                        item.context_expr.func
                    ) or dotted_name(item.context_expr.func)
                    if canonical is not None:
                        scope.ctor_locals[item.optional_vars.id] = canonical
        for child in ast.iter_child_nodes(node):
            self._child(child, scope, class_stack)

    def _child(
        self, child: ast.AST, scope: _Scope, class_stack: Tuple[str, ...]
    ) -> None:
        if isinstance(child, ast.stmt):
            self._statement(child, scope, class_stack)
        elif isinstance(child, ast.expr):
            self._expression(child, scope)
        else:
            # withitem, ExceptHandler, match cases, ... — containers
            # whose own children are the statements/expressions.
            for sub in ast.iter_child_nodes(child):
                self._child(sub, scope, class_stack)

    def _function(
        self,
        node: ast.stmt,
        parent: _Scope,
        class_stack: Tuple[str, ...],
    ) -> None:
        prefix = parent.qualname + "." if parent.qualname != MODULE_SCOPE else ""
        if class_stack and parent.qualname == MODULE_SCOPE:
            prefix = ".".join(class_stack) + "."
        qualname = prefix + node.name  # type: ignore[attr-defined]
        scope = _Scope(
            qualname=qualname,
            lineno=node.lineno,
            is_toplevel=not class_stack and parent.qualname == MODULE_SCOPE,
            class_name=class_stack[-1] if class_stack else None,
        )
        for default in getattr(node.args, "defaults", []) + getattr(
            node.args, "kw_defaults", []
        ):
            if default is not None:
                self._expression(default, parent)
        for statement in node.body:  # type: ignore[attr-defined]
            self._statement(statement, scope, class_stack=())
        self.functions.append(scope.freeze())

    def _class(
        self, node: ast.ClassDef, parent: _Scope, class_stack: Tuple[str, ...]
    ) -> None:
        for base in node.bases:
            self._expression(base, parent)
        stack = class_stack + (node.name,)
        methods = [
            child.name
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        bases = tuple(
            self.bindings.resolve(base) or dotted_name(base) or "<unknown>"
            for base in node.bases
        )
        self.classes.append(
            ClassSummary(
                name=".".join(stack),
                lineno=node.lineno,
                bases=bases,
                methods=tuple(methods),
                slots=_class_slots(node),
                frozen=_is_frozen_dataclass(node),
            )
        )
        for child in node.body:
            # Class-body statements execute at import time: calls there
            # belong to the module scope, but methods get their own.
            self._statement(child, parent, stack)

    # -- module-level bookkeeping ----------------------------------------

    def _module_level_assign(self, node: ast.stmt) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or len(targets) != 1:
            return
        target = targets[0]
        if not isinstance(target, ast.Name):
            return
        if target.id == "EVENT_SCHEMAS":
            self.defines_event_schemas = True
        if isinstance(value, (ast.Name, ast.Attribute)):
            alias = self.bindings.resolve(value) or dotted_name(value)
            if alias is not None:
                self.aliases.append((target.id, alias))
        elif isinstance(value, (ast.Tuple, ast.List)) and value.elts:
            strings = []
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    strings.append(element.value)
                else:
                    return
            self.string_tuples.append((target.id, tuple(strings)))

    def _track_assignments(self, node: ast.stmt, scope: _Scope) -> None:
        """Record ``name = Ctor(...)`` so method calls on the local can
        be resolved, and ``global``-declared writes."""
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            value = node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id in scope.global_names:
                scope.global_writes.append((target.id, node.lineno))
            if isinstance(value, ast.Call):
                canonical = self.bindings.resolve(value.func) or dotted_name(
                    value.func
                )
                if canonical is not None:
                    scope.ctor_locals[target.id] = canonical
                else:
                    scope.ctor_locals.pop(target.id, None)
            elif value is not None:
                scope.ctor_locals.pop(target.id, None)

    # -- expressions ------------------------------------------------------

    def _expression(self, node: ast.expr, scope: _Scope) -> None:
        for expr in self._walk_expr(node):
            if isinstance(expr, ast.Call):
                self._call(expr, scope)
            elif isinstance(expr, (ast.Attribute, ast.Name)):
                canonical = self.bindings.resolve(expr)
                if canonical in _ENV_READS:
                    scope.env_reads.append(expr.lineno)
            elif isinstance(expr, ast.Dict):
                self._event_dict(expr)

    def _walk_expr(self, node: ast.expr) -> Iterator[ast.expr]:
        # Expressions cannot contain statements, so a plain walk stays
        # inside the scope (lambda bodies and comprehension generators
        # included — their calls belong to the enclosing function).
        return (n for n in ast.walk(node) if isinstance(n, ast.expr))  # type: ignore[misc]

    def _call(self, node: ast.Call, scope: _Scope) -> None:
        dotted = dotted_name(node.func)
        canonical = self.bindings.resolve(node.func)
        if dotted == "hash" and canonical is None:
            scope.hash_calls.append(node.lineno)
        receiver_class = None
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            receiver_class = scope.ctor_locals.get(node.func.value.id)
        if dotted is not None and dotted.rpartition(".")[2] == "emit":
            scope.emit_calls.append(node.lineno)
        if canonical is not None and canonical.rpartition(".")[2] == (
            "TelemetryWriter"
        ):
            scope.emit_calls.append(node.lineno)
        elif canonical is None and dotted == "TelemetryWriter":
            scope.emit_calls.append(node.lineno)
        args = tuple(self._arg_ref(arg) for arg in node.args)
        scope.calls.append(
            CallRef(
                dotted=dotted,
                canonical=canonical,
                receiver_class=receiver_class,
                lineno=node.lineno,
                args=args,
                has_args=bool(node.args or node.keywords),
            )
        )
        for keyword in node.keywords:
            if (
                keyword.arg == "event"
                and dotted is not None
                and dotted.rpartition(".")[2] == "read_telemetry"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                self.event_sites.append(
                    (keyword.value.value, "filter", keyword.value.lineno)
                )

    def _arg_ref(self, node: ast.expr) -> ArgRef:
        if isinstance(node, ast.Lambda):
            return ArgRef(kind="lambda")
        if isinstance(node, ast.Name):
            return ArgRef(
                kind="name",
                dotted=node.id,
                canonical=self.bindings.resolve(node),
            )
        if isinstance(node, ast.Attribute):
            return ArgRef(
                kind="attribute",
                dotted=dotted_name(node),
                canonical=self.bindings.resolve(node),
            )
        if isinstance(node, ast.Call):
            return ArgRef(kind="call")
        if isinstance(node, ast.Constant):
            return ArgRef(kind="constant")
        return ArgRef(kind="other")

    def _event_dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "event"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                self.event_sites.append((value.value, "emit", value.lineno))


def extract_summary(
    tree: ast.Module,
    display_path: str,
    layer: str,
) -> ModuleSummary:
    """Condense one parsed file into its :class:`ModuleSummary`."""
    module = module_name_for_path(display_path)
    is_package = display_path.replace("\\", "/").endswith("/__init__.py")
    bindings = _Bindings(module, is_package)
    extractor = _Extractor(bindings)
    extractor.run(tree)
    # Imported lazily: the extractors reuse this module's fully
    # populated bindings, so a top-level import here would be a cycle.
    from repro.lint.dimflow.extract import extract_units
    from repro.lint.effects.extract import extract_effects

    return ModuleSummary(
        path=display_path,
        module=module,
        layer=layer,
        imports=tuple(sorted(bindings.map.items())),
        star_imports=tuple(extractor.bindings.stars),
        functions=tuple(extractor.functions),
        classes=tuple(extractor.classes),
        aliases=tuple(extractor.aliases),
        string_tuples=tuple(extractor.string_tuples),
        event_sites=tuple(extractor.event_sites),
        defines_event_schemas=extractor.defines_event_schemas,
        effects=extract_effects(tree, bindings),
        units=extract_units(tree, bindings),
    )
