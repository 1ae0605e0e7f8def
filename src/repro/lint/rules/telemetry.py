"""Telemetry-integrity rules (RPR301–RPR302).

The telemetry contract is bidirectional: every event a program emits
must be registered in
:data:`repro.runtime.telemetry.EVENT_SCHEMAS` (else
``validate_record`` rejects it at the first consumer), and every
registered schema must have an emit site (else it is dead weight that
``docs/telemetry.md`` and downstream dashboards still advertise).
``tests/runtime/test_telemetry_schema.py`` checks the first direction
dynamically for records a test run happens to produce; these rules
check **both** directions statically, for every emit site in the
corpus.

An *emit site* is a dict literal carrying an ``"event"`` key with a
string value (the shape every builder in
:mod:`repro.runtime.telemetry` uses); an ``event="..."`` keyword on a
``read_telemetry`` call is a *filter site* — it, too, must name a
registered event, but it does not count as emitting one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.lint.engine import Finding
from repro.lint.rules.base import CorpusRule, Rule

__all__ = ["UnregisteredEventRule", "OrphanSchemaRule", "registered_events"]


def registered_events() -> Set[str]:
    """Event names registered in the live ``EVENT_SCHEMAS``."""
    from repro.runtime.telemetry import EVENT_SCHEMAS

    return set(EVENT_SCHEMAS)


class UnregisteredEventRule(CorpusRule):
    """RPR301: event-name literal not present in ``EVENT_SCHEMAS``.

    Reads the ``event_sites`` of every file's
    :class:`~repro.lint.graph.summary.ModuleSummary`: dict literals
    with an ``"event"`` key (``emit``) and ``read_telemetry(event=...)``
    keywords (``filter``).
    """

    id = "RPR301"
    title = "event name not registered in EVENT_SCHEMAS"
    family = "telemetry"
    severity = "error"

    def __init__(self, schemas: Optional[Set[str]] = None) -> None:
        super().__init__()
        self._schemas = set(schemas) if schemas is not None else None

    def consume_summary(self, summary) -> None:
        known = self._schemas if self._schemas is not None else registered_events()
        for name, kind, lineno in summary.event_sites:
            if name in known:
                continue
            verb = "emitted" if kind == "emit" else "filtered on"
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=summary.path,
                    line=lineno,
                    col=0,
                    message=(
                        f"event {name!r} is {verb} here but not registered in "
                        "EVENT_SCHEMAS; register it (and document it in "
                        "docs/telemetry.md) or the first validate_record call "
                        "will reject it"
                    ),
                    source_line=f"{kind} {name}",
                )
            )


class OrphanSchemaRule(Rule):
    """RPR302: registered schema with no static emit site in the corpus.

    Corpus-level: the engine feeds every file's
    :class:`~repro.lint.graph.summary.ModuleSummary` through
    :meth:`consume_summary` — in the parent process, so ``--jobs``
    fan-out cannot lose the accumulated state — and the registry
    comparison happens in :meth:`finalize`.  To avoid screaming on
    partial corpora (``repro lint src/repro/units.py``), the check
    only arms itself when the corpus contains the ``EVENT_SCHEMAS``
    definition itself — or always, when a schema set was injected
    explicitly (tests and fixture corpora do this).
    """

    id = "RPR302"
    title = "registered event schema never emitted"
    family = "telemetry"
    severity = "error"
    corpus_level = True

    def __init__(self, schemas: Optional[Set[str]] = None) -> None:
        self._schemas = set(schemas) if schemas is not None else None
        self._emitted: Dict[str, str] = {}
        self._defining_files: List[str] = []

    def consume_summary(self, summary) -> None:
        for name, kind, _lineno in summary.event_sites:
            if kind == "emit":
                self._emitted.setdefault(name, summary.path)
        if summary.defines_event_schemas:
            self._defining_files.append(summary.path)

    def finalize(self) -> Iterator[Finding]:
        if self._schemas is not None:
            known = self._schemas
            anchor = "<injected schemas>"
        elif self._defining_files:
            known = registered_events()
            anchor = self._defining_files[0]
        else:
            return  # partial corpus: the registry itself was not scanned
        for name in sorted(known - set(self._emitted)):
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=anchor,
                line=0,
                col=0,
                message=(
                    f"schema {name!r} is registered in EVENT_SCHEMAS but no "
                    "scanned file emits it (no dict literal with "
                    f'"event": "{name}"); delete the schema or wire up '
                    "its emitter"
                ),
            )
