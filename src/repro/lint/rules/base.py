"""Rule plugin API and shared AST helpers.

A rule is a class with class-level metadata (stable ``id``, human
``title``, ``severity``, an optional ``layers`` scope) and two hooks:

* :meth:`Rule.check` — called once per file with a
  :class:`~repro.lint.engine.FileContext`; yields findings;
* :meth:`Rule.finalize` — called once after every file, for rules
  whose invariant spans the corpus (e.g. the orphan-schema check).

Corpus-spanning rules subclass :class:`CorpusRule` (which sets
``corpus_level = True`` and collects their findings): their ``check`` is
never shipped to ``--jobs`` worker processes (worker rule instances
are discarded, so state accumulated there would be lost).  Instead
the engine feeds them every file's picklable
:class:`~repro.lint.graph.summary.ModuleSummary` through
:meth:`Rule.consume_summary`, in deterministic file order, before
``finalize``.  Rules that additionally set ``needs_graph = True``
receive the assembled
:class:`~repro.lint.graph.builder.ProjectGraph` through
:meth:`Rule.consume_graph` (the graph is built once per run and
shared).

Rules that resolve names (``time.time``, ``np.random.rand``) read
the summary's import-canonical call targets, so ``from time import
time as now`` cannot dodge a sink table while a local variable that
merely *shadows* ``time`` does not false-positive.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.lint.engine import FileContext, Finding
from repro.lint.graph.summary import dotted_name

__all__ = ["CorpusRule", "Rule", "dotted_name", "call_name", "finding_at"]


class Rule:
    """Base class for lint rules; subclasses set the class attributes."""

    id: str = "RPR000"
    title: str = ""
    family: str = ""
    severity: str = "error"
    #: Restrict to these architectural layers (None = every file).
    layers: Optional[frozenset] = None
    #: True: the rule accumulates cross-file state.  Its ``check`` never
    #: runs (in workers or otherwise); it sees the corpus through
    #: :meth:`consume_summary` and reports from :meth:`finalize`.
    corpus_level: bool = False
    #: True: the rule wants the project call graph; implies the engine
    #: builds one and calls :meth:`consume_graph` before ``finalize``.
    needs_graph: bool = False
    #: True: the rule wants transitive effect signatures; the engine
    #: then runs the SCC fixpoint once per run and calls
    #: :meth:`consume_effects` (after :meth:`consume_graph`, before
    #: ``finalize``).  Set ``needs_graph`` too — the analysis is built
    #: on the project graph.
    needs_effects: bool = False
    #: True: the rule wants interprocedural unit signatures; the engine
    #: then runs the unit fixpoint once per run and calls
    #: :meth:`consume_units` (after :meth:`consume_effects`, before
    #: ``finalize``).  Set ``needs_graph`` too — the analysis resolves
    #: calls through the project graph.
    needs_units: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        return self.layers is None or ctx.layer in self.layers

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        return iter(())

    def consume_summary(self, summary: "ModuleSummary") -> None:  # noqa: F821
        """Observe one file's summary (corpus-level rules only)."""

    def consume_graph(self, graph: "ProjectGraph") -> None:  # noqa: F821
        """Observe the assembled project graph (``needs_graph`` rules)."""

    def consume_effects(self, analysis: "EffectAnalysis") -> None:  # noqa: F821
        """Observe the effect-signature fixpoint (``needs_effects`` rules)."""

    def consume_units(self, analysis: "UnitAnalysis") -> None:  # noqa: F821
        """Observe the unit-signature fixpoint (``needs_units`` rules)."""

    def finalize(self) -> Iterator[Finding]:
        """Yield corpus-level findings after every file was checked."""
        return iter(())

    # ------------------------------------------------------------------

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
    ) -> Finding:
        return finding_at(
            rule=self.id,
            severity=self.severity,
            ctx=ctx,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            message=message,
        )


class CorpusRule(Rule):
    """A corpus-level rule: collects findings while it consumes the
    corpus and reports them all from :meth:`finalize`."""

    corpus_level = True

    def __init__(self) -> None:
        self._findings: List[Finding] = []

    def finalize(self) -> Iterator[Finding]:
        findings, self._findings = self._findings, []
        return iter(findings)


def finding_at(
    rule: str,
    severity: str,
    ctx: FileContext,
    line: int,
    col: int,
    message: str,
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        path=ctx.display_path,
        line=line,
        col=col,
        message=message,
        source_line=ctx.line_text(line),
    )


def call_name(node: ast.Call) -> Optional[str]:
    """Bare callee name of a call (``f(...)`` or ``pkg.f(...)`` -> last part)."""
    name = dotted_name(node.func)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]
