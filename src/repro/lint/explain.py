"""``repro lint --explain RPR###``: rule metadata plus its doc section.

The catalogue entry (id, title, family, severity, and the family's
one-line contract) comes from the live registry; the prose comes from
``docs/static_analysis.md``, located relative to this file so the
command works from any working directory.  Doc sections are matched by
their ``###`` headings, which name the rule ranges they cover
(``### Transitive determinism (RPR601–RPR604)``) — the docs-parity
test keeps those headings honest, so ``--explain`` can never show the
wrong section for an id that exists.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.lint.rules import RULE_FAMILIES, all_rule_ids, rule_catalogue

__all__ = ["doc_section_for", "explain_rule"]

#: ``docs/static_analysis.md`` relative to the repository root (this
#: file is ``src/repro/lint/explain.py``).
_DOCS_PATH = Path(__file__).resolve().parents[3] / "docs" / "static_analysis.md"

#: A single rule id, or an en-dash/hyphen range, inside a heading.
_RANGE_RE = re.compile(r"RPR(\d{3})\s*[–—-]\s*RPR(\d{3})")
_SINGLE_RE = re.compile(r"RPR(\d{3})")


def _heading_covers(heading: str, number: int) -> bool:
    """Does a ``###`` heading's RPR range (or single id) cover ``number``?"""
    spans: List[Tuple[int, int]] = [
        (int(m.group(1)), int(m.group(2))) for m in _RANGE_RE.finditer(heading)
    ]
    # Mask ranges before collecting singles so a range's endpoints are
    # not double-counted as standalone ids.
    masked = _RANGE_RE.sub("", heading)
    spans.extend(
        (int(m.group(1)), int(m.group(1))) for m in _SINGLE_RE.finditer(masked)
    )
    return any(lo <= number <= hi for lo, hi in spans)


def doc_section_for(rule_id: str, docs_text: Optional[str] = None) -> str:
    """The ``docs/static_analysis.md`` section covering ``rule_id``.

    Returns the heading plus its body, up to the next heading of the
    same or higher level; ``""`` when no section names the id (the
    catalogue entry still prints, so --explain degrades, not fails).
    """
    if docs_text is None:
        try:
            docs_text = _DOCS_PATH.read_text(encoding="utf-8")
        except OSError:
            return ""
    number = int(rule_id[3:])
    lines = docs_text.splitlines()
    for index, line in enumerate(lines):
        if not line.startswith("### "):
            continue
        if not _heading_covers(line, number):
            continue
        body: List[str] = [line]
        for follow in lines[index + 1:]:
            if follow.startswith("### ") or follow.startswith("## "):
                break
            body.append(follow)
        return "\n".join(body).rstrip() + "\n"
    return ""


def explain_rule(rule_id: str) -> str:
    """Render the full ``--explain`` text for one rule id.

    Raises :class:`~repro.errors.ConfigurationError` for unknown ids,
    listing the known ones — same contract as ``--rule``.
    """
    entries: Dict[str, Dict[str, object]] = {
        str(entry["id"]): entry for entry in rule_catalogue()
    }
    entry = entries.get(rule_id)
    if entry is None:
        raise ConfigurationError(
            f"unknown lint rule id {rule_id}; known: "
            + ", ".join(all_rule_ids())
        )
    family = str(entry["family"])
    lines = [
        f"{rule_id}: {entry['title']}",
        f"family: {family} — {RULE_FAMILIES.get(family, '')}",
        f"severity: {entry['severity']}",
    ]
    section = doc_section_for(rule_id)
    if section:
        lines.extend(["", section.rstrip()])
    else:
        lines.extend(["", "(no doc section found in docs/static_analysis.md)"])
    return "\n".join(lines) + "\n"
