"""The dimension algebra behind every unit-checking rule.

A *dimension* is a product of integer powers of base dimensions
(``seconds``, ``bytes``, ``tasks``, ...), canonically rendered as the
sorted numerator factors joined by ``*``, then ``/`` and the sorted
denominator (exponents > 1 as ``^n``)::

    "seconds"               seconds
    "bytes/seconds"         a transfer rate
    "seconds^2"             a (nonsense) squared duration
    "bytes/seconds^2"       rate change
    ""                      dimensionless (literals, ratios)

Strings are the interchange format everywhere — the metadata tables in
:mod:`repro.units`, the picklable :mod:`repro.lint.dimflow.model`
records, finding messages, the units manifest — because canonical
strings compare with ``==`` and pickle/JSON for free.  This module
owns parsing, multiplication/division, and the suffix convention, and
is a *leaf*: it imports only the standard library and the pure-data
tables of :mod:`repro.units`.

Under the algebra ``footprint_bytes / elapsed_seconds`` is the *known*
rate ``bytes/seconds`` (and keeps propagating through the call graph),
and ``window_seconds * gap_seconds`` is the known ``seconds^2`` — so
adding either to a plain duration is flaggable instead of invisible.

Dimensionless (``""``) is the honest unit of numeric literals and of
same-unit ratios; it is *compatible with everything* in additive and
comparison checks (``x_seconds + 1`` stays fine), so checks only fire
between two known, non-empty, different dimensions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.units import UNIT_SUFFIXES

__all__ = [
    "SCALAR",
    "div_units",
    "mul_units",
    "parse_unit",
    "pow_unit",
    "render_unit",
    "unit_of_name",
]

#: The dimensionless unit (numeric literals, same-unit ratios).
SCALAR = ""

#: Longest suffix first, so ``_bytes_per_second`` wins over ``_bytes``
#: would never arise (``second`` != ``seconds``) but ``_cache_lines``
#: must win over any overlapping shorter suffix.
_SUFFIXES = sorted(UNIT_SUFFIXES, key=len, reverse=True)


def unit_of_name(identifier: str) -> Optional[str]:
    """Unit the naming convention assigns to ``identifier``, if any."""
    for suffix in _SUFFIXES:
        if identifier == suffix or identifier.endswith("_" + suffix):
            return UNIT_SUFFIXES[suffix]
    return None


def parse_unit(unit: str) -> Dict[str, int]:
    """Canonical unit string -> {base dimension: exponent}."""
    powers: Dict[str, int] = {}
    if not unit:
        return powers
    numerator, _, denominator = unit.partition("/")
    for text, sign in ((numerator, 1), (denominator, -1)):
        if not text:
            continue
        for factor in text.split("*"):
            base, _, exponent = factor.partition("^")
            if not base or base == "1":
                continue  # the "1/..." placeholder numerator, not a base
            powers[base] = powers.get(base, 0) + sign * (
                int(exponent) if exponent else 1
            )
    return {base: power for base, power in powers.items() if power != 0}


def render_unit(powers: Dict[str, int]) -> str:
    """{base: exponent} -> canonical unit string (sorted, minimal)."""

    def side(entries: List[Tuple[str, int]]) -> str:
        return "*".join(
            base if power == 1 else f"{base}^{power}"
            for base, power in entries
        )

    num = sorted((b, p) for b, p in powers.items() if p > 0)
    den = sorted((b, -p) for b, p in powers.items() if p < 0)
    if not num and not den:
        return SCALAR
    if not den:
        return side(num)
    return f"{side(num) or '1'}/{side(den)}"


def mul_units(left: str, right: str) -> str:
    powers = parse_unit(left)
    for base, power in parse_unit(right).items():
        powers[base] = powers.get(base, 0) + power
        if powers[base] == 0:
            del powers[base]
    return render_unit(powers)


def div_units(left: str, right: str) -> str:
    powers = parse_unit(left)
    for base, power in parse_unit(right).items():
        powers[base] = powers.get(base, 0) - power
        if powers[base] == 0:
            del powers[base]
    return render_unit(powers)


def pow_unit(unit: str, exponent: int) -> str:
    return render_unit(
        {base: power * exponent for base, power in parse_unit(unit).items()}
    )
