"""Per-function local effect extraction (the ``--jobs``-parallel half).

One linear, flow-sensitive walk per function body, tracking:

* an **alias map** from local names to ``(param, field, via)`` — ``t =
  task`` makes ``t`` the same object as ``task``; ``q = task.queue``
  tracks one level of field sensitivity; anything deeper (or any
  reassignment to a non-alias) honestly drops the binding, so a
  rebound name can never be mistaken for the caller's object;
* **mutations** through those aliases: attribute / subscript /
  augmented stores, ``del``, ``object.__setattr__``, and the known
  in-place container methods (``append``, ``update``, ...).  ``x += 1`` on a *bare name* rebinds
  rather than mutates for immutables, so it only drops the alias — a
  documented blind spot for ``w += [x]`` on lists;
* **captures**: storing a parameter object itself (a bare-name alias,
  never a mere attribute read like ``record.duration``) into a
  ``self`` attribute, a declared ``global``, or a nested function's
  closure;
* **capture-then-mutate** flows: any local stored into a ``self``
  attribute is remembered from that line on, and later in-place
  mutations of it (through aliases) are recorded with the capture
  point — the flow-sensitive half of the mutation-after-freeze rules;
* **raise sites** with the exception-type names every enclosing
  ``try`` would catch there (so the fixpoint can tell an escaping
  raise from a converted one), and **calls** annotated with which
  arguments alias which parameters, for interprocedural propagation.

Everything recorded is a plain picklable record from
:mod:`repro.lint.effects.model`; resolution against other files
happens later, in :mod:`repro.lint.effects.fixpoint`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.effects.model import (
    TOP,
    CaptureMutation,
    EffectCall,
    FunctionEffects,
    ParamCapture,
    ParamMutation,
    RaiseSite,
)
from repro.lint.graph.summary import (
    analyze_functions,
    dotted_name,
    nested_sites,
    target_names,
)

__all__ = ["MUTATING_METHODS", "extract_effects"]

#: Method names that mutate their receiver in place (containers and
#: the common deque/set/dict surface).  Calling one through an alias
#: of a parameter is a provable mutation of the caller's object.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
        "__setitem__",
        "__delitem__",
    }
)

#: Sentinel caught-name for a bare ``except:`` (catches everything).
CATCH_ALL = "<any>"

#: Builtin annotations whose instances are immutable: a parameter so
#: annotated can be *stored* without retaining mutable state.
_IMMUTABLE_ANNOTATIONS = frozenset(
    {"int", "float", "str", "bool", "bytes", "complex", "frozenset"}
)


def _is_immutable_annotation(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in _IMMUTABLE_ANNOTATIONS
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value in _IMMUTABLE_ANNOTATIONS
    return False

_Alias = Tuple[str, str, Tuple[str, ...]]  # (param, field, via chain)


class _FunctionAnalyzer:
    """One flow-sensitive pass over one function body."""

    def __init__(
        self,
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
        bindings,  # repro.lint.graph.summary._Bindings
        inherited: Optional[Dict[str, "_Alias"]] = None,
    ) -> None:
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self.bindings = bindings
        args = node.args  # type: ignore[attr-defined]
        self.params = tuple(
            a.arg for a in list(args.posonlyargs) + list(args.args)
        )
        self.kwonly = tuple(a.arg for a in args.kwonlyargs)
        self.immutable_params = tuple(
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
            if _is_immutable_annotation(a.annotation)
        )
        param_names = set(self.params) | set(self.kwonly)
        #: local name -> (param, field, via): which caller object the
        #: name denotes right now.  Params start aliased to themselves.
        self.alias: Dict[str, _Alias] = {
            name: (name, "", (name,)) for name in param_names
        }
        #: A closure also sees the enclosing frame's aliases it does
        #: not shadow (see :meth:`_nested_function`).
        for name, entry in (inherited or {}).items():
            self.alias.setdefault(name, entry)
        #: local name -> (self attr, capture line, via): locals whose
        #: object has been stored into a self attribute.
        self.captured: Dict[str, Tuple[str, int, Tuple[str, ...]]] = {}
        #: local name -> constructor canonical (mirrors the summary's
        #: ctor_locals, for method-receiver resolution).
        self.ctor_locals: Dict[str, str] = {}
        self.globals_declared: Set[str] = set()
        self.mutations: List[ParamMutation] = []
        self.captures: List[ParamCapture] = []
        self.raises: List[RaiseSite] = []
        self.calls: List[EffectCall] = []
        self.capture_mutations: List[CaptureMutation] = []
        #: nested defs / classes to analyze as their own functions.
        self.nested: List[Tuple[ast.AST, str, Optional[str]]] = []

    # -- entry ---------------------------------------------------------

    def run(self) -> FunctionEffects:
        for statement in self.node.body:  # type: ignore[attr-defined]
            self._statement(statement, caught=(), handler=None)
        return FunctionEffects(
            qualname=self.qualname,
            lineno=self.node.lineno,  # type: ignore[attr-defined]
            class_name=self.class_name,
            params=self.params,
            kwonly=self.kwonly,
            immutable_params=self.immutable_params,
            mutations=tuple(self.mutations),
            captures=tuple(self.captures),
            raises=tuple(self.raises),
            calls=tuple(self.calls),
            capture_mutations=tuple(self.capture_mutations),
        )

    # -- alias machinery -----------------------------------------------

    def _alias_of(self, expr: ast.expr) -> Optional[_Alias]:
        """The ``(param, field, via)`` an expression denotes, if any."""
        if isinstance(expr, ast.Name):
            return self.alias.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            base = self.alias.get(expr.value.id)
            if base is not None and base[1] == "":
                param, _, via = base
                step = via[:-1] + (f"{via[-1]}.{expr.attr}",)
                return (param, expr.attr, step)
        return None

    def _capture(self, name: str, lineno: int, dest: str) -> None:
        """Record that ``name`` — if it denotes a whole parameter object
        other than the receiver — is retained in ``dest``."""
        entry = self.alias.get(name)
        if entry is not None and entry[1] == "" and entry[0] not in ("self", "cls"):
            self.captures.append(
                ParamCapture(param=entry[0], lineno=lineno, via=entry[2], dest=dest)
            )

    def _drop(self, name: str) -> None:
        self.alias.pop(name, None)
        self.captured.pop(name, None)
        self.ctor_locals.pop(name, None)

    def _bind(self, name: str, value: ast.expr, lineno: int) -> None:
        """Process ``name = value`` for alias / capture bookkeeping."""
        if name in self.globals_declared:
            source = self._alias_of(value)
            if source is not None and source[1] == "":
                self.captures.append(
                    ParamCapture(
                        param=source[0],
                        lineno=lineno,
                        via=source[2] + (name,),
                        dest=f"global {name}",
                    )
                )
            return  # a global target never becomes a local alias
        source = self._alias_of(value)
        if source is not None:
            param, fieldname, via = source
            self.alias[name] = (param, fieldname, via + (name,))
        else:
            self.alias.pop(name, None)
        if isinstance(value, ast.Name) and value.id in self.captured:
            attr, cap_line, via = self.captured[value.id]
            self.captured[name] = (attr, cap_line, via + (name,))
        else:
            self.captured.pop(name, None)
        if isinstance(value, ast.Call):
            canonical = self.bindings.resolve(value.func) or dotted_name(
                value.func
            )
            if canonical is not None:
                self.ctor_locals[name] = canonical
                return
        self.ctor_locals.pop(name, None)

    # -- store targets -------------------------------------------------

    def _store(self, target: ast.expr, kind: str, lineno: int) -> None:
        """Record a mutation implied by storing into ``target``."""
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                entry = self.alias.get(base.id)
                if entry is not None:
                    param, fieldname, via = entry
                    if fieldname == "":
                        self.mutations.append(
                            ParamMutation(
                                param=param,
                                field=target.attr,
                                lineno=lineno,
                                via=via,
                                kind=kind,
                            )
                        )
                    else:
                        self.mutations.append(
                            ParamMutation(
                                param=param,
                                field=fieldname,
                                lineno=lineno,
                                via=via,
                                kind="store-attr-deep",
                            )
                        )
                return
            deep = self._alias_of(base)
            if deep is not None:
                self.mutations.append(
                    ParamMutation(
                        param=deep[0],
                        field=deep[1],
                        lineno=lineno,
                        via=deep[2],
                        kind="store-attr-deep",
                    )
                )
            return
        if isinstance(target, ast.Subscript):
            entry = self._alias_of(target.value)
            if entry is not None:
                self.mutations.append(
                    ParamMutation(
                        param=entry[0],
                        field=entry[1],
                        lineno=lineno,
                        via=entry[2],
                        kind="store-index" if kind != "delete" else "delete",
                    )
                )
            if isinstance(target.value, ast.Name):
                self._note_captured_mutation(
                    target.value.id, lineno, "store-index"
                )
            return

    def _setattr(self, node: ast.Call) -> None:
        """``object.__setattr__(obj, "name", v)`` stores like ``obj.name = v``
        — the one way to write a frozen dataclass.  A non-literal name
        mutates an unknown field, recorded as the object itself."""
        entry = self._alias_of(node.args[0])
        if entry is None:
            return
        param, fieldname, via = entry
        kind = "store-attr-deep" if fieldname else "setattr"
        name = node.args[1] if len(node.args) > 1 else None
        if not fieldname and isinstance(name, ast.Constant) and isinstance(name.value, str):
            fieldname = name.value
        self.mutations.append(
            ParamMutation(
                param=param, field=fieldname, lineno=node.lineno, via=via, kind=kind
            )
        )

    def _note_captured_mutation(
        self, name: str, lineno: int, kind: str
    ) -> None:
        entry = self.captured.get(name)
        if entry is not None:
            attr, cap_line, via = entry
            self.capture_mutations.append(
                CaptureMutation(
                    attr=attr,
                    capture_lineno=cap_line,
                    lineno=lineno,
                    name=name,
                    via=via,
                    kind=kind,
                )
            )

    def _self_attr_store(
        self, target: ast.Attribute, value: Optional[ast.expr], lineno: int
    ) -> None:
        """``self.<attr> = value``: record captures of params/locals."""
        if value is None:
            return
        attr = target.attr
        if isinstance(value, ast.Name):
            self._capture(value.id, lineno, f"self.{attr}")
            # Any bare local stored on self starts capture tracking —
            # mutating it later edits the stored object in place.
            self.captured.setdefault(
                value.id, (attr, lineno, (value.id,))
            )
        elif isinstance(value, ast.Lambda):
            for name in sorted(_free_names(value)):
                self._capture(name, lineno, f"self.{attr}")

    # -- statements ----------------------------------------------------

    def _statement(
        self,
        node: ast.stmt,
        caught: Tuple[str, ...],
        handler: Optional[Tuple[str, ...]],
        handler_vars: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        handler_vars = handler_vars or {}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._nested_function(node)
            return
        if isinstance(node, ast.ClassDef):
            self.nested.extend(nested_sites(node, self.qualname, self.class_name))
            return
        if isinstance(node, ast.Global):
            self.globals_declared.update(node.names)
            return
        if isinstance(node, ast.Assign):
            self._scan_expr(node.value, caught)
            for target in node.targets:
                self._assign_target(target, node.value, node.lineno)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._scan_expr(node.value, caught)
                self._assign_target(node.target, node.value, node.lineno)
            elif isinstance(node.target, ast.Name):
                self._drop(node.target.id)
            return
        if isinstance(node, ast.AugAssign):
            self._scan_expr(node.value, caught)
            if isinstance(node.target, ast.Name):
                # ``x += v`` rebinds for immutables; honesty drops the
                # alias rather than guessing an in-place mutation.
                self._drop(node.target.id)
            else:
                self._store(node.target, "augstore", node.lineno)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._drop(target.id)
                else:
                    self._store(target, "delete", node.lineno)
            return
        if isinstance(node, ast.Raise):
            self._raise(node, caught, handler, handler_vars)
            return
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            self._try(node, caught, handler, handler_vars)
            return
        if isinstance(node, ast.If):
            self._scan_expr(node.test, caught)
            for child in node.body + node.orelse:
                self._statement(child, caught, handler, handler_vars)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan_expr(node.iter, caught)
            for name in target_names(node.target):
                self._drop(name)
            for child in node.body + node.orelse:
                self._statement(child, caught, handler, handler_vars)
            return
        if isinstance(node, ast.While):
            self._scan_expr(node.test, caught)
            for child in node.body + node.orelse:
                self._statement(child, caught, handler, handler_vars)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._scan_expr(item.context_expr, caught)
                if isinstance(item.optional_vars, ast.Name):
                    self._bind(
                        item.optional_vars.id,
                        item.context_expr,
                        node.lineno,
                    )
            for child in node.body:
                self._statement(child, caught, handler, handler_vars)
            return
        if isinstance(node, ast.Match):
            self._scan_expr(node.subject, caught)
            for case in node.cases:
                if case.guard is not None:
                    self._scan_expr(case.guard, caught)
                for child in case.body:
                    self._statement(child, caught, handler, handler_vars)
            return
        # Return / Expr / Assert / Import / Pass / Break / Continue ...
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, caught)

    def _assign_target(
        self, target: ast.expr, value: ast.expr, lineno: int
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value, lineno)
            return
        if isinstance(target, ast.Attribute):
            self._store(target, "store-attr", lineno)
            if (
                isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                self._self_attr_store(target, value, lineno)
            return
        if isinstance(target, ast.Subscript):
            self._store(target, "store-index", lineno)
            base = target.value
            # ``self.attr[k] = param`` retains the object in a
            # self-owned container: a capture.
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id in ("self", "cls")
                and isinstance(value, ast.Name)
            ):
                self._capture(value.id, lineno, f"self.{base.attr}[...]")
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            values: Sequence[Optional[ast.expr]]
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                values = value.elts
            else:
                values = [None] * len(target.elts)
            for element, element_value in zip(target.elts, values):
                if isinstance(element, ast.Name):
                    if element_value is not None:
                        self._bind(element.id, element_value, lineno)
                    else:
                        self._drop(element.id)
                else:
                    self._assign_target(
                        element,
                        element_value
                        if element_value is not None
                        else ast.Constant(value=None),
                        lineno,
                    )

    # -- nested scopes -------------------------------------------------

    def _nested_function(self, node: ast.AST) -> None:
        shadowed = {
            a.arg
            for a in (
                list(node.args.posonlyargs)  # type: ignore[attr-defined]
                + list(node.args.args)  # type: ignore[attr-defined]
                + list(node.args.kwonlyargs)  # type: ignore[attr-defined]
            )
        }
        free = _free_names(node) - shadowed
        for name in sorted(free):
            self._capture(
                name,
                node.lineno,  # type: ignore[attr-defined]
                f"closure {node.name}",  # type: ignore[attr-defined]
            )
        # A closure writes the objects it closes over whenever it runs:
        # walk its body under those aliases and count its mutations of
        # them as this function's own (``self._sig = ...`` in a helper
        # defined inside a method mutates the method's receiver).
        inherited = {name: self.alias[name] for name in free if name in self.alias}
        if inherited:
            closure = _FunctionAnalyzer(
                node, self.qualname, self.class_name, self.bindings, inherited
            )
            closure.run()
            own = set(closure.params) | set(closure.kwonly)
            self.mutations.extend(
                m for m in closure.mutations if m.param not in own
            )
        self._drop(node.name)  # type: ignore[attr-defined]
        self.nested.extend(nested_sites(node, self.qualname, self.class_name))

    # -- raises and try context ----------------------------------------

    def _handler_types(self, handler: ast.ExceptHandler) -> Tuple[str, ...]:
        if handler.type is None:
            return (CATCH_ALL,)
        nodes = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = []
        for type_node in nodes:
            resolved = self.bindings.resolve(type_node) or dotted_name(type_node)
            names.append(resolved if resolved is not None else TOP)
        return tuple(names)

    def _try(
        self,
        node: ast.Try,
        caught: Tuple[str, ...],
        handler: Optional[Tuple[str, ...]],
        handler_vars: Dict[str, Tuple[str, ...]],
    ) -> None:
        body_caught = caught
        for except_handler in node.handlers:
            body_caught = body_caught + self._handler_types(except_handler)
        for child in node.body:
            self._statement(child, body_caught, handler, handler_vars)
        for except_handler in node.handlers:
            types = self._handler_types(except_handler)
            local_vars = dict(handler_vars)
            if except_handler.name is not None:
                local_vars[except_handler.name] = types
                self._drop(except_handler.name)
            for child in except_handler.body:
                self._statement(child, caught, types, local_vars)
        # orelse/finally run outside the protection of the handlers.
        for child in node.orelse + node.finalbody:
            self._statement(child, caught, handler, handler_vars)

    def _raise(
        self,
        node: ast.Raise,
        caught: Tuple[str, ...],
        handler: Optional[Tuple[str, ...]],
        handler_vars: Dict[str, Tuple[str, ...]],
    ) -> None:
        if node.exc is None:
            # Bare re-raise: propagates whatever the handler caught.
            for type_name in handler if handler is not None else (TOP,):
                self.raises.append(
                    RaiseSite(
                        type=type_name,
                        lineno=node.lineno,
                        caught=caught,
                        kind="reraise",
                    )
                )
            return
        self._scan_expr(node.exc, caught)
        if node.cause is not None:
            self._scan_expr(node.cause, caught)
        exc = node.exc
        if isinstance(exc, ast.Call):
            type_name = self.bindings.resolve(exc.func) or dotted_name(exc.func)
        elif isinstance(exc, ast.Name) and exc.id in handler_vars:
            for caught_type in handler_vars[exc.id]:
                self.raises.append(
                    RaiseSite(
                        type=caught_type,
                        lineno=node.lineno,
                        caught=caught,
                        kind="reraise",
                    )
                )
            return
        else:
            type_name = self.bindings.resolve(exc) or dotted_name(exc)
            # A bare name that is a local (alias/ctor result) is an
            # *instance*, not a class — unresolvable.
            if isinstance(exc, ast.Name) and (
                exc.id in self.alias or exc.id in self.ctor_locals
            ):
                type_name = None
        self.raises.append(
            RaiseSite(
                type=type_name if type_name is not None else TOP,
                lineno=node.lineno,
                caught=caught,
            )
        )

    # -- expressions ---------------------------------------------------

    def _scan_expr(self, node: ast.expr, caught: Tuple[str, ...]) -> None:
        for expr in ast.walk(node):
            if isinstance(expr, ast.Call):
                self._call(expr, caught)

    def _call(self, node: ast.Call, caught: Tuple[str, ...]) -> None:
        func = node.func
        receiver: Optional[Tuple[str, str]] = None
        receiver_class: Optional[str] = None
        if dotted_name(func) == "object.__setattr__" and node.args:
            self._setattr(node)
        if isinstance(func, ast.Attribute):
            base = func.value
            if func.attr in MUTATING_METHODS:
                entry = self._alias_of(base)
                if entry is not None:
                    self.mutations.append(
                        ParamMutation(
                            param=entry[0],
                            field=entry[1],
                            lineno=node.lineno,
                            via=entry[2],
                            kind=f"call:{func.attr}",
                        )
                    )
                if isinstance(base, ast.Name):
                    self._note_captured_mutation(
                        base.id, node.lineno, f"call:{func.attr}"
                    )
            if isinstance(base, ast.Name):
                entry = self.alias.get(base.id)
                if entry is not None:
                    receiver = (entry[0], entry[1])
                receiver_class = self.ctor_locals.get(base.id)
            # ``self.<attr>.append(param)``: retained in a self-owned
            # container — a capture of the argument.
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id in ("self", "cls")
                and func.attr in ("append", "add", "appendleft", "insert")
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        self._capture(arg.id, node.lineno, f"self.{base.attr}[...]")
        args = tuple(
            (
                (entry[0], entry[1])
                if (entry := self._alias_of(arg)) is not None
                else None
            )
            for arg in node.args
        )
        kwargs = tuple(
            (
                keyword.arg,
                (
                    (entry[0], entry[1])
                    if (entry := self._alias_of(keyword.value)) is not None
                    else None
                ),
            )
            for keyword in node.keywords
            if keyword.arg is not None
        )
        self.calls.append(
            EffectCall(
                dotted=dotted_name(func),
                canonical=self.bindings.resolve(func),
                receiver_class=receiver_class,
                lineno=node.lineno,
                caught=caught,
                args=args,
                kwargs=kwargs,
                receiver=receiver,
            )
        )


def _free_names(node: ast.AST) -> Set[str]:
    """Names loaded anywhere inside ``node`` (closure candidates)."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def extract_effects(tree: ast.Module, bindings) -> Tuple[FunctionEffects, ...]:
    """Local effects of every function in one parsed file.

    ``bindings`` is the file's fully-populated import map (the
    ``_Bindings`` the summary pass built), used to canonicalize
    exception types and call targets.  Qualnames match the summary's
    scheme exactly, so each record joins its
    :class:`~repro.lint.graph.summary.FunctionSummary` (and project
    graph node) by ``namespace::qualname``.
    """
    return tuple(analyze_functions(tree, _FunctionAnalyzer, bindings))
