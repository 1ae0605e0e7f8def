"""Interprocedural unit-and-dimension inference (the RPR810+ layer).

Three modules, mirroring the effects package's split:

* :mod:`repro.lint.dimflow.algebra` — the dimension algebra (canonical
  unit strings, multiplication/division, the naming convention);
* :mod:`repro.lint.dimflow.model` — picklable local facts and the
  post-fixpoint :class:`~repro.lint.dimflow.model.UnitSignature`;
* :mod:`repro.lint.dimflow.extract` / :mod:`~repro.lint.dimflow.fixpoint`
  — the per-file extraction (runs in ``--jobs`` workers) and the
  whole-program SCC fixpoint (runs once, in-process).
"""

from repro.lint.dimflow.algebra import (
    SCALAR,
    div_units,
    mul_units,
    parse_unit,
    pow_unit,
    render_unit,
    unit_of_name,
)
from repro.lint.dimflow.extract import extract_units
from repro.lint.dimflow.fixpoint import AttrEvidence, UnitAnalysis
from repro.lint.dimflow.model import (
    TOP_UNIT,
    AttrWrite,
    CheckSite,
    ClassAttr,
    EmitField,
    ModuleUnits,
    ReturnSite,
    UnitCallSite,
    UnitFacts,
    UnitProvenance,
    UnitSignature,
    UnitTerm,
)

__all__ = [
    "SCALAR",
    "TOP_UNIT",
    "AttrEvidence",
    "AttrWrite",
    "CheckSite",
    "ClassAttr",
    "EmitField",
    "ModuleUnits",
    "ReturnSite",
    "UnitAnalysis",
    "UnitCallSite",
    "UnitFacts",
    "UnitProvenance",
    "UnitSignature",
    "UnitTerm",
    "div_units",
    "extract_units",
    "mul_units",
    "parse_unit",
    "pow_unit",
    "render_unit",
    "unit_of_name",
]
