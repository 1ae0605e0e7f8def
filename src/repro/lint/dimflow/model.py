"""Picklable data model of the unit-and-dimension analysis.

Like :mod:`repro.lint.effects.model`, this module is a *leaf* of plain
frozen dataclasses, so extraction can run inside ``--jobs`` worker
processes and ship its results across the pool boundary on the file's
:class:`~repro.lint.graph.summary.ModuleSummary`.

Two layers of record:

* :class:`ModuleUnits` / :class:`UnitFacts` — the *local* unit facts
  of one file: per-function return/argument/attribute/check sites,
  each carrying a symbolic :class:`UnitTerm`;
* :class:`UnitSignature` — the *transitive* per-function summary after
  the SCC fixpoint of
  :class:`~repro.lint.dimflow.fixpoint.UnitAnalysis`: one lattice
  value per parameter plus one for the return.

The lattice per slot is three-tiered: *unknown* (``None`` — no
evidence), a concrete dimension string from
:mod:`repro.lint.dimflow.algebra`, and the honest :data:`TOP_UNIT`
(``⊤`` — conflicting evidence, or dynamic dispatch).  Joining two
different concrete dimensions yields ``⊤``, never a guess, and no
rule treats ``⊤`` or unknown as evidence — exactly the effect
analysis's degradation-toward-silence contract.

A :class:`UnitTerm` is a tiny symbolic expression: a resolved
dimension, a reference to a parameter's (future) unit, a reference to
a call's (future) return unit, or a product of powers of sub-terms.
Division collapsing to unknown is exactly the blind spot the algebra
removed, so terms keep quotients as negative exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "TOP_UNIT",
    "AttrWrite",
    "CheckSite",
    "ClassAttr",
    "EmitField",
    "ModuleUnits",
    "ReturnSite",
    "UnitCallSite",
    "UnitFacts",
    "UnitProvenance",
    "UnitSignature",
    "UnitTerm",
]

#: The honest "conflicting/unknowable" lattice top.  Stored in
#: signatures (and the manifest) as a fact about *evidence*, never
#: used by a rule as a concrete dimension.
TOP_UNIT = "⊤"


@dataclass(frozen=True)
class UnitTerm:
    """One symbolic unit expression, evaluated after the fixpoint.

    ``kind`` selects the payload: ``"known"`` (``unit`` is a canonical
    dimension string, ``""`` = dimensionless), ``"param"`` (``name``
    is a parameter of the enclosing function), ``"call"`` (``index``
    into the enclosing :attr:`UnitFacts.calls`), or ``"product"``
    (``factors`` are ``(term, exponent)`` pairs — a quotient is an
    exponent of ``-1``).  An expression with *no* unit evidence is
    represented as ``None`` wherever ``Optional[UnitTerm]`` appears,
    not as a term kind.  ``suffix`` is the unit the name the term is
    bound to claims by its suffix (``t_seconds = helper()`` claims
    seconds whatever ``helper`` returns); RPR813 checks that reading
    as well as the inferred one.
    """

    kind: str
    unit: str = ""
    name: str = ""
    index: int = -1
    factors: Tuple[Tuple["UnitTerm", int], ...] = ()
    suffix: Optional[str] = None


@dataclass(frozen=True)
class UnitCallSite:
    """One call, annotated with the unit term of every argument."""

    dotted: Optional[str]
    canonical: Optional[str]
    receiver_class: Optional[str]
    lineno: int
    args: Tuple[Optional[UnitTerm], ...] = ()
    kwargs: Tuple[Tuple[str, Optional[UnitTerm]], ...] = ()


@dataclass(frozen=True)
class ReturnSite:
    """One ``return expr`` statement (bare returns are not recorded)."""

    lineno: int
    term: Optional[UnitTerm]


@dataclass(frozen=True)
class AttrWrite:
    """One ``self.<attr> = expr`` (or ctor-local ``obj.<attr> = expr``).

    ``class_name`` is the enclosing class for self-writes, or the
    constructor's canonical/dotted name for writes through a local
    built in the same scope (``cfg = ThrottleConfig(); cfg.x = ...``)
    — the fixpoint canonicalizes both against the project graph.
    """

    class_name: str
    attr: str
    lineno: int
    term: Optional[UnitTerm]


@dataclass(frozen=True)
class CheckSite:
    """One additive or comparison site between two unit terms.

    ``op`` is the operator's surface text (``+``, ``-``, ``<``,
    ``+=``, ...).  RPR813 evaluates both sides after the fixpoint and
    flags two different concrete units.
    """

    op: str
    lineno: int
    col: int
    left: Optional[UnitTerm]
    right: Optional[UnitTerm]


@dataclass(frozen=True)
class EmitField:
    """One unit-suffixed field of a telemetry emit dict literal."""

    event: str
    fieldname: str
    lineno: int
    term: Optional[UnitTerm]


@dataclass(frozen=True)
class UnitFacts:
    """Local unit facts of one function body."""

    qualname: str
    lineno: int
    class_name: Optional[str]
    params: Tuple[str, ...]
    kwonly: Tuple[str, ...] = ()
    returns: Tuple[ReturnSite, ...] = ()
    calls: Tuple[UnitCallSite, ...] = ()
    attr_writes: Tuple[AttrWrite, ...] = ()
    checks: Tuple[CheckSite, ...] = ()
    emit_fields: Tuple[EmitField, ...] = ()


@dataclass(frozen=True)
class ClassAttr:
    """One class-body attribute declaration (dataclass field, slot
    annotation, or class-level default) with its assigned term."""

    class_name: str
    attr: str
    lineno: int
    term: Optional[UnitTerm]


@dataclass(frozen=True)
class ModuleUnits:
    """Everything the unit fixpoint needs to know about one file."""

    functions: Tuple[UnitFacts, ...] = ()
    class_attrs: Tuple[ClassAttr, ...] = ()


@dataclass(frozen=True)
class UnitSignature:
    """Transitive unit summary of one function, post fixpoint.

    ``params`` maps each parameter with *any* evidence to its lattice
    value (a concrete dimension or :data:`TOP_UNIT`); parameters with
    no evidence are absent.  ``declared`` lists the parameters whose
    unit is a *contract* (name suffix or ``repro.units.UNIT_PARAMS``
    entry) rather than a call-site inference — argument mismatches
    against those are RPR810 findings, and call sites never widen
    them.  ``returns`` is ``None`` (unknown), a dimension, or ``⊤``.
    """

    key: str
    params: Tuple[Tuple[str, str], ...] = ()
    declared: Tuple[str, ...] = ()
    returns: Optional[str] = None
    polymorphic: bool = False

    def param_unit(self, name: str) -> Optional[str]:
        for param, unit in self.params:
            if param == name:
                return unit
        return None


@dataclass(frozen=True)
class UnitProvenance:
    """Why an inferred parameter carries its unit: one call site that
    contributed it.  ``term`` is the argument's term in the *caller*'s
    frame, so witnesses can keep walking toward a concrete origin."""

    caller: str
    lineno: int
    unit: str
    term: Optional[UnitTerm] = field(default=None, compare=False)
