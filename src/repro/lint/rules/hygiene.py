"""Executor-hygiene rules (RPR401–RPR403).

Motivated by real incidents in this repo's history: a broad ``except``
around pool teardown can swallow ``BrokenProcessPool`` and
``TimeoutError`` and turn a crashed sweep into a silent hang; a
mutable default argument shared across calls breaks the executor's
"every point is independent" contract; ``sum()`` over an unordered
``set`` of floats produces different totals under different insertion
orders because float addition is non-associative — the exact property
the equilibrium memo keys by *preserving* order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import Rule, call_name, dotted_name

__all__ = ["BroadExceptRule", "MutableDefaultRule", "SumOverSetRule"]

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
_MUTABLE_CONSTRUCTORS = frozenset(
    {"set", "list", "dict", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _names_in_handler(node: ast.ExceptHandler) -> Iterator[str]:
    handler_type = node.type
    if handler_type is None:
        yield "<bare>"
        return
    elements = (
        handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    )
    for element in elements:
        name = dotted_name(element)
        if name is not None:
            yield name.rsplit(".", 1)[-1]


class BroadExceptRule(Rule):
    """RPR401: bare or blanket ``except`` clauses.

    ``except Exception`` in executor code swallows
    ``concurrent.futures.BrokenProcessPool`` and ``TimeoutError`` —
    the two signals the retry/respawn machinery *must* see.  Catch the
    concrete exceptions, re-raise what you cannot handle, or annotate
    a deliberate firewall with ``# repro: lint-ok RPR401 -- reason``.
    """

    id = "RPR401"
    title = "bare or blanket except clause"
    family = "executor-hygiene"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for name in _names_in_handler(node):
                if name == "<bare>":
                    yield self.finding(
                        ctx,
                        node,
                        "bare 'except:' catches SystemExit/KeyboardInterrupt "
                        "and every pool-failure signal; name the exceptions",
                    )
                elif name in _BROAD_EXCEPTIONS:
                    yield self.finding(
                        ctx,
                        node,
                        f"'except {name}' swallows BrokenProcessPool/"
                        "TimeoutError along with real bugs; catch the "
                        "concrete exceptions or annotate why the blanket "
                        "is safe",
                    )


class MutableDefaultRule(Rule):
    """RPR402: mutable default argument values.

    A default ``[]``/``{}``/``set()`` is evaluated once at definition
    time and shared by every call — state leaking between sweep points
    that the content-addressed cache can never see.
    """

    id = "RPR402"
    title = "mutable default argument"
    family = "executor-hygiene"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default in {node.name}() is shared across "
                        "calls; default to None and build inside the body",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return call_name(node) in _MUTABLE_CONSTRUCTORS
        return False


class SumOverSetRule(Rule):
    """RPR403: ``sum()`` over a set, where iteration order is unspecified.

    Float addition is non-associative; summing a ``set`` (whose
    iteration order depends on hash seeding and insertion history)
    yields different bits on different runs.  Sum a ``sorted(...)``
    sequence, or keep an ordered container.
    """

    id = "RPR403"
    title = "sum() over an unordered set"
    family = "executor-hygiene"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                continue
            argument = node.args[0]
            unordered = isinstance(argument, (ast.Set, ast.SetComp)) or (
                isinstance(argument, ast.Call)
                and call_name(argument) in ("set", "frozenset")
            )
            if unordered:
                yield self.finding(
                    ctx,
                    node,
                    "sum() over a set: float addition is non-associative "
                    "and set iteration order is unspecified — sum a sorted "
                    "sequence to keep runs bit-identical",
                )
