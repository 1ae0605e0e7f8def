"""Interprocedural unit inference: SCC fixpoint over the call graph.

:class:`UnitAnalysis` joins every file's local
:class:`~repro.lint.dimflow.model.ModuleUnits` facts against the
:class:`~repro.lint.graph.builder.ProjectGraph`, resolves each
recorded call with the graph's own resolver, and computes one
:class:`~repro.lint.dimflow.model.UnitSignature` per function:

* **declared** parameter units come from ``repro.units.UNIT_PARAMS``
  (which wins) or the ``_seconds``/``_bytes``/... name-suffix
  convention, and are *contracts*: call sites never widen them —
  an argument whose unit disagrees is an RPR810 finding instead;
* **inferred** parameter units are the lattice join of every resolved
  call site's argument unit (dimensionless literals contribute
  nothing; two different concrete dimensions join to the honest
  :data:`~repro.lint.dimflow.model.TOP_UNIT`);
* **return** units join the evaluated ``return`` sites — ``None`` as
  soon as any site is unknown, ``⊤`` on conflict, and fixed by
  ``repro.units.UNIT_RETURNS`` when the function is declared there.

Scheduling reuses the effect analysis's iterative Tarjan
(:func:`repro.lint.effects.fixpoint._tarjan`): components come out
callees-first, so each full sweep recomputes returns bottom-up and
then pushes argument units top-down, repeating until nothing moves.
Every slot climbs a finite three-tier lattice (unknown -> concrete ->
``⊤``) monotonically, so the loop terminates; sorted iteration and
commutative joins make the result independent of sweep order.

Functions listed in ``repro.units.UNIT_POLYMORPHIC`` are exempt from
all of it: their parameters accept any dimension, so sites neither pin
them nor get checked against them.

Provenance is kept per ``(function, parameter, unit)`` — the
deterministically-first call site that contributed the unit — so
:meth:`UnitAnalysis.flow_witness` can walk an argument's term back
through inferred parameters to a concrete origin and findings can
print the full propagation chain, RPR601-style.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.dimflow.algebra import (
    SCALAR,
    mul_units,
    pow_unit,
    unit_of_name,
)
from repro.lint.dimflow.model import (
    TOP_UNIT,
    ModuleUnits,
    UnitCallSite,
    UnitFacts,
    UnitSignature,
    UnitTerm,
)
from repro.lint.effects.fixpoint import _tarjan
from repro.lint.graph.summary import CallRef, ModuleSummary
from repro.units import UNIT_PARAMS, UNIT_POLYMORPHIC, UNIT_RETURNS

__all__ = ["AttrEvidence", "UnitAnalysis"]


@dataclass(frozen=True)
class AttrEvidence:
    """One unit observation for a class attribute: an assignment whose
    value had a known dimension, or the attribute's own name suffix."""

    unit: str
    label: str
    path: str
    lineno: int
    layer: str = ""


def _join(left: Optional[str], right: Optional[str]) -> Optional[str]:
    """Lattice join: unknown < concrete dimension < ``⊤``."""
    if left is None:
        return right
    if right is None or left == right:
        return left
    return TOP_UNIT


#: Per-call resolution: ("fixed", unit) for UNIT_RETURNS-declared
#: callables, ("poly",) for UNIT_POLYMORPHIC, ("callee", key, is_ctor)
#: for a project function with facts, ("unknown",) otherwise.
_CallInfo = Tuple


class UnitAnalysis:
    """Unit signatures for every function in a linted corpus."""

    def __init__(self, graph, summaries: Sequence[ModuleSummary]) -> None:
        self._graph = graph
        self._facts: Dict[str, UnitFacts] = {}
        self._namespace_of: Dict[str, str] = {}
        self._module_units: List[Tuple[str, str, str, ModuleUnits]] = []
        for summary in summaries:
            namespace = summary.module or summary.path
            units = summary.units
            if units is None:
                continue
            self._module_units.append(
                (namespace, summary.path, summary.layer, units)
            )
            for facts in units.functions:
                key = f"{namespace}::{facts.qualname}"
                if key not in self._facts:
                    self._facts[key] = facts
                    self._namespace_of[key] = namespace
        self._call_info: Dict[str, Tuple[_CallInfo, ...]] = {}
        self._build_call_info()
        self._params: Dict[str, Dict[str, str]] = {}
        self._returns: Dict[str, Optional[str]] = {}
        self._declared: Dict[str, Tuple[str, ...]] = {}
        self._fixed_returns: Dict[str, str] = {}
        self._polymorphic: Dict[str, bool] = {}
        self._provenance: Dict[
            Tuple[str, str, str], Tuple[str, int, Optional[UnitTerm]]
        ] = {}
        self._run_fixpoint()
        self._signatures: Dict[str, UnitSignature] = {
            key: UnitSignature(
                key=key,
                params=tuple(sorted(self._params[key].items())),
                declared=self._declared[key],
                returns=self._returns[key],
                polymorphic=self._polymorphic[key],
            )
            for key in self._facts
        }
        self._attr_evidence: Dict[Tuple[str, str], List[AttrEvidence]] = {}
        self._collect_attr_evidence()

    # -- public queries ------------------------------------------------

    def keys(self) -> List[str]:
        return sorted(self._facts)

    def facts(self, key: str) -> Optional[UnitFacts]:
        return self._facts.get(key)

    def signature(self, key: str) -> UnitSignature:
        found = self._signatures.get(key)
        if found is not None:
            return found
        return UnitSignature(key=key)

    def canonical_name(self, key: str) -> str:
        """``namespace.qualname`` — the UNIT_* table lookup key."""
        namespace, _, qualname = key.partition("::")
        return f"{namespace}.{qualname}"

    def node_path(self, key: str) -> str:
        node = self._graph.node(key)
        return node.path if node is not None else ""

    def node_layer(self, key: str) -> str:
        node = self._graph.node(key)
        return node.layer if node is not None else ""

    def node_label(self, key: str) -> str:
        """Human-readable name for ``key`` (call-path rendering)."""
        return self._node_label(key)

    def render_path(self, path: Tuple[str, ...]) -> str:
        return self._graph.render_path(path)

    def call_edges(
        self, key: str
    ) -> List[Tuple[UnitCallSite, Optional[str], bool]]:
        """``(call, callee_key_or_None, is_ctor)`` per recorded call."""
        facts = self._facts.get(key)
        if facts is None:
            return []
        out: List[Tuple[UnitCallSite, Optional[str], bool]] = []
        for call, info in zip(facts.calls, self._call_info[key]):
            if info[0] == "callee":
                out.append((call, info[1], info[2]))
            else:
                out.append((call, None, False))
        return out

    def evaluate(
        self, key: str, term: Optional[UnitTerm], *, suffixes: bool = False
    ) -> Optional[str]:
        """Post-fixpoint unit of ``term`` in ``key``'s frame.

        ``None`` = no evidence; ``⊤`` = conflicting evidence.  Rules
        must treat both as silence.  With ``suffixes``, a term (or
        factor) bound to a unit-suffixed name reads as that
        :attr:`~UnitTerm.suffix` instead — the name's own claim.
        """
        if term is None:
            return None
        if suffixes and term.suffix is not None:
            return term.suffix
        if term.kind == "known":
            return term.unit
        if term.kind == "param":
            if self._polymorphic.get(key, False):
                return None
            return self._params.get(key, {}).get(term.name)
        if term.kind == "call":
            return self._call_return(key, term.index)
        if term.kind == "product":
            result = SCALAR
            for factor, exponent in term.factors:
                unit = self.evaluate(key, factor, suffixes=suffixes)
                if unit is None:
                    return None
                if unit == TOP_UNIT:
                    return TOP_UNIT
                result = mul_units(result, pow_unit(unit, exponent))
            return result
        return None

    def argument_bindings(
        self, key: str, call: UnitCallSite, callee_key: str, is_ctor: bool
    ) -> List[Tuple[str, Optional[UnitTerm]]]:
        """``(callee_param, caller_arg_term)`` pairs for one call."""
        callee = self._facts.get(callee_key)
        if callee is None:
            return []
        params = list(callee.params)
        offset = 0
        if is_ctor:
            offset = 1  # params[0] is the freshly constructed object
        elif callee.class_name is not None and params and params[0] in (
            "self",
            "cls",
        ):
            first = (call.dotted or "").split(".")[0]
            offset = 0 if first == callee.class_name else 1
        out: List[Tuple[str, Optional[UnitTerm]]] = []
        for index, term in enumerate(call.args):
            position = index + offset
            if position < len(params):
                out.append((params[position], term))
        for name, term in call.kwargs:
            if name in callee.params or name in callee.kwonly:
                out.append((name, term))
        return out

    def flow_witness(
        self, key: str, term: Optional[UnitTerm], unit: str
    ) -> Tuple[str, ...]:
        """Call path (origin first, ``key`` last) explaining how the
        unit ``unit`` reached ``term`` in ``key``'s frame.

        Walks parameter references back through the recorded
        provenance until a concrete origin (or a cycle) stops it; a
        term that is already locally concrete yields ``(key,)``.
        """
        path = [key]
        seen = {key}
        current_key, current_term = key, term
        while current_term is not None and current_term.kind == "param":
            entry = self._provenance.get(
                (current_key, current_term.name, unit)
            )
            if entry is None:
                break
            caller, _, caller_term = entry
            if caller in seen:
                break
            path.append(caller)
            seen.add(caller)
            current_key, current_term = caller, caller_term
        return tuple(reversed(path))

    def attribute_evidence(
        self,
    ) -> Dict[Tuple[str, str], List[AttrEvidence]]:
        """``(canonical class, attr)`` -> every unit observation."""
        return self._attr_evidence

    # -- manifest ------------------------------------------------------

    def to_json(self) -> str:
        """The ``--units-output`` manifest (stable, sorted)."""
        functions: Dict[str, Dict] = {}
        for key in sorted(self._facts):
            signature = self._signatures[key]
            entry: Dict = {}
            if signature.polymorphic:
                entry["polymorphic"] = True
            params = {
                name: unit for name, unit in signature.params if unit
            }
            if params:
                entry["params"] = params
            if signature.declared:
                entry["declared"] = sorted(signature.declared)
            if signature.returns:
                entry["returns"] = signature.returns
            if entry:
                functions[key] = entry
        attributes: Dict[str, str] = {}
        for (class_name, attr), evidence in sorted(
            self._attr_evidence.items()
        ):
            joined: Optional[str] = None
            for item in evidence:
                if item.unit and item.unit != SCALAR:
                    joined = _join(joined, item.unit)
            if joined:
                attributes[f"{class_name}.{attr}"] = joined
        document = {
            "version": 1,
            "functions": functions,
            "attributes": attributes,
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    # -- construction --------------------------------------------------

    def _build_call_info(self) -> None:
        for key in sorted(self._facts):
            infos: List[_CallInfo] = []
            for call in self._facts[key].calls:
                infos.append(self._resolve_one(key, call))
            self._call_info[key] = tuple(infos)

    def _resolve_one(self, key: str, call: UnitCallSite):
        canonical = call.canonical or call.dotted or ""
        if canonical in UNIT_RETURNS:
            return ("fixed", UNIT_RETURNS[canonical])
        if canonical in UNIT_POLYMORPHIC:
            return ("poly",)
        ref = CallRef(
            dotted=call.dotted,
            canonical=call.canonical,
            receiver_class=call.receiver_class,
            lineno=call.lineno,
        )
        target = self._graph.resolve_call(key, ref)
        if target is None:
            return ("unknown",)
        if isinstance(target, tuple):
            namespace, cls = target
            for ctor in ("__init__", "__post_init__"):
                ctor_key = f"{namespace}::{cls.name}.{ctor}"
                if ctor_key in self._facts:
                    return ("callee", ctor_key, True)
            return ("unknown",)
        callee_canonical = self.canonical_name(target.key)
        if callee_canonical in UNIT_RETURNS:
            return ("fixed", UNIT_RETURNS[callee_canonical])
        if callee_canonical in UNIT_POLYMORPHIC:
            return ("poly",)
        if target.key in self._facts:
            return ("callee", target.key, False)
        return ("unknown",)

    def _call_return(self, key: str, index: int) -> Optional[str]:
        infos = self._call_info.get(key, ())
        if index >= len(infos):
            return None
        info = infos[index]
        if info[0] == "fixed":
            return info[1]
        if info[0] == "callee":
            return self._returns.get(info[1])
        return None

    # -- fixpoint ------------------------------------------------------

    def _seed(self, key: str) -> None:
        facts = self._facts[key]
        canonical = self.canonical_name(key)
        polymorphic = canonical in UNIT_POLYMORPHIC
        self._polymorphic[key] = polymorphic
        declared_table = UNIT_PARAMS.get(canonical, {})
        params: Dict[str, str] = {}
        declared: List[str] = []
        if not polymorphic:
            for name in facts.params + facts.kwonly:
                if name in ("self", "cls"):
                    continue
                unit = declared_table.get(name) or unit_of_name(name)
                if unit is not None:
                    params[name] = unit
                    declared.append(name)
        self._params[key] = params
        self._declared[key] = tuple(sorted(declared))
        if canonical in UNIT_RETURNS and not polymorphic:
            self._fixed_returns[key] = UNIT_RETURNS[canonical]
            self._returns[key] = UNIT_RETURNS[canonical]
        else:
            self._returns[key] = None

    def _compute_returns(self, key: str) -> Optional[str]:
        if key in self._fixed_returns:
            return self._fixed_returns[key]
        if self._polymorphic[key]:
            return None
        facts = self._facts[key]
        if not facts.returns:
            return None
        concrete: Optional[str] = None
        saw_scalar = False
        for site in facts.returns:
            unit = self.evaluate(key, site.term)
            if unit is None:
                return None
            if unit == TOP_UNIT:
                return TOP_UNIT
            if unit == SCALAR:
                saw_scalar = True
                continue
            concrete = _join(concrete, unit)
        if concrete is not None:
            return concrete
        return SCALAR if saw_scalar else None

    def _push_arguments(self, key: str) -> bool:
        changed = False
        facts = self._facts[key]
        for call, info in zip(facts.calls, self._call_info[key]):
            if info[0] != "callee":
                continue
            callee_key, is_ctor = info[1], info[2]
            if self._polymorphic[callee_key]:
                continue
            declared = self._declared[callee_key]
            callee_params = self._params[callee_key]
            for param, term in self.argument_bindings(
                key, call, callee_key, is_ctor
            ):
                if param in declared:
                    continue  # a contract — mismatches are findings
                unit = self.evaluate(key, term)
                if unit is None or unit in (SCALAR, TOP_UNIT):
                    continue
                joined = _join(callee_params.get(param), unit)
                if joined != callee_params.get(param):
                    callee_params[param] = joined  # type: ignore[assignment]
                    changed = True
                prov_key = (callee_key, param, unit)
                entry = (key, call.lineno, term)
                existing = self._provenance.get(prov_key)
                if existing is None or (entry[0], entry[1]) < (
                    existing[0],
                    existing[1],
                ):
                    self._provenance[prov_key] = entry
        return changed

    def _run_fixpoint(self) -> None:
        keys = sorted(self._facts)
        for key in keys:
            self._seed(key)
        adjacency = {
            key: sorted(
                {
                    info[1]
                    for info in self._call_info[key]
                    if info[0] == "callee"
                }
            )
            for key in keys
        }
        order = [
            key
            for component in _tarjan(keys, adjacency)
            for key in component
        ]
        changed = True
        while changed:
            changed = False
            for key in order:  # callees-first: returns settle bottom-up
                updated = self._compute_returns(key)
                if updated != self._returns[key]:
                    self._returns[key] = updated
                    changed = True
            for key in reversed(order):  # callers-first: args flow down
                if self._push_arguments(key):
                    changed = True

    # -- attributes ----------------------------------------------------

    def _canonical_class(self, namespace: str, name: str) -> str:
        resolved = self._graph.resolve_type(namespace, name)
        if resolved is not None:
            return resolved
        if "." in name:
            return name
        return f"{namespace}.{name}"

    def _collect_attr_evidence(self) -> None:
        def note(
            class_name: str, attr: str, evidence: AttrEvidence
        ) -> None:
            self._attr_evidence.setdefault((class_name, attr), []).append(
                evidence
            )

        for namespace, path, layer, units in self._module_units:
            for record in units.class_attrs:
                canonical = self._canonical_class(
                    namespace, record.class_name
                )
                suffix = unit_of_name(record.attr)
                if suffix is not None:
                    note(
                        canonical,
                        record.attr,
                        AttrEvidence(
                            unit=suffix,
                            label="name suffix",
                            path=path,
                            lineno=record.lineno,
                            layer=layer,
                        ),
                    )
                if record.term is None:
                    continue
                unit = self.evaluate("", record.term)
                if unit and unit != TOP_UNIT and (
                    suffix is None or unit != suffix
                ):
                    note(
                        canonical,
                        record.attr,
                        AttrEvidence(
                            unit=unit,
                            label=f"class body of {canonical}",
                            path=path,
                            lineno=record.lineno,
                            layer=layer,
                        ),
                    )
        for key in sorted(self._facts):
            facts = self._facts[key]
            namespace = self._namespace_of[key]
            path = self.node_path(key)
            layer = self.node_layer(key)
            for write in facts.attr_writes:
                canonical = self._canonical_class(
                    namespace, write.class_name
                )
                suffix = unit_of_name(write.attr)
                seen = self._attr_evidence.get((canonical, write.attr))
                if suffix is not None and not any(
                    item.label == "name suffix" for item in (seen or [])
                ):
                    note(
                        canonical,
                        write.attr,
                        AttrEvidence(
                            unit=suffix,
                            label="name suffix",
                            path=path,
                            lineno=write.lineno,
                            layer=layer,
                        ),
                    )
                unit = self.evaluate(key, write.term)
                if unit and unit != TOP_UNIT:
                    note(
                        canonical,
                        write.attr,
                        AttrEvidence(
                            unit=unit,
                            label=self._node_label(key),
                            path=path,
                            lineno=write.lineno,
                            layer=layer,
                        ),
                    )
        for evidence in self._attr_evidence.values():
            evidence.sort(key=lambda e: (e.path, e.lineno, e.unit, e.label))

    def _node_label(self, key: str) -> str:
        node = self._graph.node(key)
        if node is not None:
            return node.label()
        return key
