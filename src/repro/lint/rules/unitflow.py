"""Unit rules (RPR810–RPR814), the dimflow family.

The codebase carries several base dimensions (seconds, bytes, cycles,
tasks, requests, ...) plus derived rates.  A latency accidentally
added to a footprint type-checks — both are floats — and produces a
number that is silently wrong by nine orders of magnitude.  This
family consumes the :class:`~repro.lint.dimflow.fixpoint.UnitAnalysis`
fixpoint — one unit signature per function, closed over the project
call graph — so a unit survives the call boundary: a ``*_seconds``
value passed into a parameter named ``budget`` keeps its dimension
downstream.

* **RPR810** — a resolved call binds an argument whose inferred unit
  disagrees with the callee parameter's *declared* unit (name suffix
  or ``repro.units.UNIT_PARAMS`` entry).  The finding prints the full
  propagation path, RPR601-style, and carries it as ``source_line``
  so baselines key on the chain;
* **RPR811** — one function returns two different known units from
  different branches;
* **RPR812** — a class attribute accumulates conflicting units from
  different assignment sites (or its own name suffix);
* **RPR813** — ``+``/``-``, a comparison, or an augmented ``+=``/``-=``
  between two different known units, whether both are visible in the
  expression (``latency_seconds + footprint_bytes``) or one was
  inferred through the call graph (the zero-hop and the
  interprocedural case of one check);
* **RPR814** — a telemetry emit field whose name carries a unit
  suffix but whose value's inferred unit disagrees.

Every rule treats *unknown* (no evidence) and ``⊤`` (conflicting
evidence) as silence, and dimensionless (literals, same-unit ratios)
as compatible with everything — the family only speaks when two
concrete dimensions provably disagree.  Scoped to the library layers:
tests compare quantities against telemetry dicts and fixture scalars
in ways the naming convention was never meant to govern.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lint.dimflow.algebra import unit_of_name
from repro.lint.dimflow.model import TOP_UNIT, UnitTerm
from repro.lint.engine import PACKAGE_LAYERS, Finding
from repro.lint.rules.base import CorpusRule
from repro.units import UNIT_PARAMS, UNIT_RETURNS

__all__ = [
    "ArgumentUnitMismatchRule",
    "InconsistentReturnUnitsRule",
    "ConflictingAttributeUnitsRule",
    "InferredUnitMixRule",
    "TelemetryFieldUnitRule",
]


def _concrete(unit: Optional[str]) -> bool:
    """A dimension the family may argue about: known, non-empty, not ⊤."""
    return bool(unit) and unit != TOP_UNIT


class _UnitFlowRule(CorpusRule):
    """Shared scaffolding: hold findings, filter to library layers."""

    family = "dimflow"
    severity = "error"
    needs_graph = True
    needs_units = True

    def consume_units(self, analysis) -> None:
        self._collect(analysis)

    def _collect(self, analysis) -> None:
        raise NotImplementedError

    def _src_keys(self, analysis) -> List[str]:
        return [
            key
            for key in analysis.keys()
            if analysis.node_layer(key) in PACKAGE_LAYERS
        ]

    def _emit(
        self,
        path: str,
        line: int,
        message: str,
        source_line: str,
        col: int = 0,
    ) -> None:
        self._findings.append(
            Finding(
                rule=self.id,
                severity=self.severity,
                path=path,
                line=line,
                col=col,
                message=message,
                source_line=source_line,
            )
        )


class ArgumentUnitMismatchRule(_UnitFlowRule):
    """RPR810: argument unit disagrees with the parameter's contract."""

    id = "RPR810"
    title = "argument unit mismatches the parameter's declared unit"

    def _collect(self, analysis) -> None:
        for key in self._src_keys(analysis):
            path = analysis.node_path(key)
            for call, callee_key, is_ctor in analysis.call_edges(key):
                if callee_key is not None:
                    self._check_resolved(
                        analysis, key, path, call, callee_key, is_ctor
                    )
                else:
                    self._check_table(analysis, key, path, call)

    def _check_resolved(
        self, analysis, key: str, path: str, call, callee_key: str, is_ctor
    ) -> None:
        signature = analysis.signature(callee_key)
        if signature.polymorphic:
            return
        declared = set(signature.declared)
        for param, term in analysis.argument_bindings(
            key, call, callee_key, is_ctor
        ):
            if param not in declared:
                continue
            expected = signature.param_unit(param)
            actual = analysis.evaluate(key, term)
            if not (
                _concrete(expected)
                and _concrete(actual)
                and actual != expected
            ):
                continue
            witness = analysis.flow_witness(key, term, actual)
            chain = analysis.render_path(witness + (callee_key,))
            callee_label = analysis.node_label(callee_key)
            self._emit(
                path,
                call.lineno,
                f"parameter '{param}' of {callee_label} is declared "
                f"{expected} but receives {actual} via: {chain}",
                source_line=f"{param}:{chain}",
            )

    def _check_table(self, analysis, key: str, path: str, call) -> None:
        """Calls into ``UNIT_PARAMS``-annotated callables the corpus
        does not contain (the table lists leading parameters in
        signature order, so positional binding aligns from index 0)."""
        canonical = call.canonical or call.dotted or ""
        table = UNIT_PARAMS.get(canonical)
        if table is None:
            return
        order = list(table)
        bindings: List[Tuple[str, Optional[UnitTerm]]] = []
        for index, term in enumerate(call.args):
            if index < len(order):
                bindings.append((order[index], term))
        for name, term in call.kwargs:
            if name in table:
                bindings.append((name, term))
        for param, term in bindings:
            expected = table[param]
            actual = analysis.evaluate(key, term)
            if not (
                _concrete(expected)
                and _concrete(actual)
                and actual != expected
            ):
                continue
            witness = analysis.flow_witness(key, term, actual)
            chain = analysis.render_path(witness) + f" -> {canonical}"
            self._emit(
                path,
                call.lineno,
                f"parameter '{param}' of {canonical} is declared "
                f"{expected} but receives {actual} via: {chain}",
                source_line=f"{param}:{chain}",
            )


class InconsistentReturnUnitsRule(_UnitFlowRule):
    """RPR811: one function returns two different known units."""

    id = "RPR811"
    title = "function returns inconsistent units across branches"

    def _collect(self, analysis) -> None:
        for key in self._src_keys(analysis):
            signature = analysis.signature(key)
            if signature.polymorphic:
                continue
            if analysis.canonical_name(key) in UNIT_RETURNS:
                continue  # the declared contract wins; sites obey it
            facts = analysis.facts(key)
            if facts is None:
                continue
            seen: List[Tuple[str, int]] = []
            for site in facts.returns:
                unit = analysis.evaluate(key, site.term)
                if not _concrete(unit):
                    continue
                if not any(unit == existing for existing, _ in seen):
                    seen.append((unit, site.lineno))
            if len(seen) < 2:
                continue
            rendered = ", ".join(
                f"{unit} (line {lineno})" for unit, lineno in seen
            )
            self._emit(
                analysis.node_path(key),
                seen[1][1],
                f"{analysis.canonical_name(key)} returns {rendered}: "
                "branches disagree about the result's unit, so no caller "
                "can use it safely",
                source_line="return:" + ",".join(u for u, _ in seen),
            )


class ConflictingAttributeUnitsRule(_UnitFlowRule):
    """RPR812: a class attribute is assigned conflicting units."""

    id = "RPR812"
    title = "attribute assigned conflicting units"

    def _collect(self, analysis) -> None:
        for (class_name, attr), evidence in sorted(
            analysis.attribute_evidence().items()
        ):
            sites = [
                item
                for item in evidence
                if _concrete(item.unit) and item.layer in PACKAGE_LAYERS
            ]
            distinct: List = []
            for item in sites:
                if not any(item.unit == kept.unit for kept in distinct):
                    distinct.append(item)
            if len(distinct) < 2:
                continue
            first, second = distinct[0], distinct[1]
            self._emit(
                second.path,
                second.lineno,
                f"attribute {class_name}.{attr} carries {second.unit} here "
                f"({second.label}) but {first.unit} at "
                f"{first.path}:{first.lineno} ({first.label}); one of the "
                "writers is converting units implicitly",
                source_line=f"{class_name}.{attr}",
            )


class InferredUnitMixRule(_UnitFlowRule):
    """RPR813: arithmetic/comparison between two different known units."""

    id = "RPR813"
    title = "arithmetic/comparison mixes incompatible units"

    def _collect(self, analysis) -> None:
        for key in self._src_keys(analysis):
            facts = analysis.facts(key)
            if facts is None:
                continue
            path = analysis.node_path(key)
            for check in facts.checks:
                # Each side is read twice: by the unit inferred for its
                # value, and by the claim of its names' suffixes (the
                # expression-local reading).  Either mismatch fires.
                for suffixes in (False, True):
                    left = analysis.evaluate(key, check.left, suffixes=suffixes)
                    right = analysis.evaluate(key, check.right, suffixes=suffixes)
                    if _concrete(left) and _concrete(right) and left != right:
                        break
                else:
                    continue
                detail = self._flow_detail(analysis, key, check, left, right)
                self._emit(
                    path,
                    check.lineno,
                    f"`{check.op}` between {left} and {right}{detail}: "
                    "quantities in different units never add up or order "
                    "meaningfully; convert one side explicitly (see "
                    "repro.units) or rename the variable if its suffix "
                    "is wrong",
                    source_line=f"{check.op}:{left}:{right}",
                    col=check.col,
                )

    def _flow_detail(
        self, analysis, key: str, check, left: str, right: str
    ) -> str:
        for term, unit in ((check.left, left), (check.right, right)):
            witness = analysis.flow_witness(key, term, unit)
            if len(witness) > 1:
                return f" ({unit} flows via: {analysis.render_path(witness)})"
        return ""


class TelemetryFieldUnitRule(_UnitFlowRule):
    """RPR814: emit-field name suffix disagrees with the value's unit."""

    id = "RPR814"
    title = "telemetry field name contradicts the value's unit"

    def _collect(self, analysis) -> None:
        for key in self._src_keys(analysis):
            facts = analysis.facts(key)
            if facts is None:
                continue
            path = analysis.node_path(key)
            for emit in facts.emit_fields:
                expected = unit_of_name(emit.fieldname)
                actual = analysis.evaluate(key, emit.term)
                if not (
                    _concrete(expected)
                    and _concrete(actual)
                    and actual != expected
                ):
                    continue
                self._emit(
                    path,
                    emit.lineno,
                    f"event '{emit.event}' field '{emit.fieldname}' promises "
                    f"{expected} by its name but the emitted value is "
                    f"{actual}; rename the field or convert the value "
                    "(readers trust the suffix)",
                    source_line=f"{emit.event}.{emit.fieldname}",
                )
