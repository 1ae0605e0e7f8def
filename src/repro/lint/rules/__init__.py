"""Rule registry for ``repro lint``.

Every shipped rule is listed in :data:`RULE_CLASSES`; the two
engine-emitted meta findings (unparseable file, malformed suppression)
are described in :data:`META_RULES` so ``--list-rules``, ``--rule``
filtering, and the docs-parity test cover them too.  The catalogue in
``docs/static_analysis.md`` is compared against
:func:`rule_catalogue` by ``tests/lint/test_docs_parity.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.lint.rules.api import LayerImportRule, MissingAllRule
from repro.lint.rules.base import Rule
from repro.lint.rules.effects import (
    DeterministicBareExceptionRule,
    PolicyHookArgumentMutationRule,
    PolicyHookGlobalWriteRule,
    PolicyHookReferenceRetentionRule,
    PostCaptureMutationRule,
    SignatureInteriorMutationRule,
    WorkerExceptionEscapeRule,
)
from repro.lint.rules.hygiene import (
    BroadExceptRule,
    MutableDefaultRule,
    SumOverSetRule,
)
from repro.lint.rules.poolsafety import (
    NonPicklableSubmissionRule,
    WorkerGlobalMutationRule,
    WorkerTelemetryRule,
)
from repro.lint.rules.telemetry import OrphanSchemaRule, UnregisteredEventRule
from repro.lint.rules.transitive import (
    DETERMINISTIC_LAYERS,
    TransitiveEntropyRule,
    TransitiveEnvironmentRule,
    TransitiveHashRule,
    TransitiveWallClockRule,
    UnseededRandomRule,
)
from repro.lint.rules.unitflow import (
    ArgumentUnitMismatchRule,
    ConflictingAttributeUnitsRule,
    InconsistentReturnUnitsRule,
    InferredUnitMixRule,
    TelemetryFieldUnitRule,
)

__all__ = [
    "DETERMINISTIC_LAYERS",
    "META_RULES",
    "RULE_CLASSES",
    "RULE_FAMILIES",
    "Rule",
    "all_rule_ids",
    "build_rules",
    "rule_catalogue",
]

#: Every rule class, in id order.
RULE_CLASSES: Tuple[type, ...] = (
    UnseededRandomRule,
    UnregisteredEventRule,
    OrphanSchemaRule,
    BroadExceptRule,
    MutableDefaultRule,
    SumOverSetRule,
    MissingAllRule,
    LayerImportRule,
    TransitiveWallClockRule,
    TransitiveEntropyRule,
    TransitiveEnvironmentRule,
    TransitiveHashRule,
    NonPicklableSubmissionRule,
    WorkerGlobalMutationRule,
    WorkerTelemetryRule,
    PolicyHookArgumentMutationRule,
    PolicyHookReferenceRetentionRule,
    PolicyHookGlobalWriteRule,
    PostCaptureMutationRule,
    SignatureInteriorMutationRule,
    WorkerExceptionEscapeRule,
    DeterministicBareExceptionRule,
    ArgumentUnitMismatchRule,
    InconsistentReturnUnitsRule,
    ConflictingAttributeUnitsRule,
    InferredUnitMixRule,
    TelemetryFieldUnitRule,
)

#: Engine-emitted findings: id -> (title, family, severity).
META_RULES: Dict[str, Tuple[str, str, str]] = {
    "RPR001": ("file does not parse", "engine", "error"),
    "RPR002": ("malformed suppression comment", "engine", "error"),
}

#: Family name -> one-line description (docs parity checks these too).
RULE_FAMILIES: Dict[str, str] = {
    "engine": "findings the engine itself emits",
    "determinism": "every random draw is explicitly seeded, in every layer",
    "telemetry": "EVENT_SCHEMAS and emit sites agree both ways",
    "executor-hygiene": "failure signals and float ordering survive",
    "api-hygiene": "explicit exports and one-way layering",
    "transitive-determinism": "no model-layer function reaches a sink, at any depth",
    "pool-safety": "everything crossing the process pool pickles cleanly",
    "plugin-contract": "policy hooks observe simulator state, never edit it",
    "mutation-after-freeze": "frozen dataclasses and memo-signature slots stay frozen",
    "exception-flow": "only repro.errors types cross process boundaries",
    "dimflow": "seconds, bytes, and counts never mix, locally or across calls",
}


def all_rule_ids() -> List[str]:
    """Every known rule id (shipped rules plus engine meta findings)."""
    return sorted([cls.id for cls in RULE_CLASSES] + list(META_RULES))


def rule_catalogue() -> List[Dict[str, object]]:
    """Stable description of every rule, for --list-rules and docs parity."""
    rows: List[Dict[str, object]] = [
        {"id": rule_id, "title": title, "family": family, "severity": severity}
        for rule_id, (title, family, severity) in META_RULES.items()
    ]
    rows.extend(
        {"id": cls.id, "title": cls.title, "family": cls.family, "severity": cls.severity}
        for cls in RULE_CLASSES
    )
    rows.sort(key=lambda row: str(row["id"]))
    return rows


def build_rules(
    only: Optional[Sequence[str]] = None,
    telemetry_schemas: Optional[Set[str]] = None,
) -> List[Rule]:
    """Instantiate the rule set.

    Args:
        only: Restrict to these rule ids (meta ids are accepted and
            simply have no class to instantiate).  Unknown ids raise
            :class:`~repro.errors.ConfigurationError`.
        telemetry_schemas: Override the registered event set the
            telemetry rules compare against (tests inject small fake
            registries; the default reads the live ``EVENT_SCHEMAS``).
    """
    known = set(all_rule_ids())
    wanted: Optional[Set[str]] = None
    if only is not None:
        wanted = set(only)
        unknown = sorted(wanted - known)
        if unknown:
            raise ConfigurationError(
                f"unknown lint rule id(s) {', '.join(unknown)}; known: "
                + ", ".join(all_rule_ids())
            )
    rules: List[Rule] = []
    for cls in RULE_CLASSES:
        if wanted is not None and cls.id not in wanted:
            continue
        if cls in (UnregisteredEventRule, OrphanSchemaRule):
            rules.append(cls(schemas=telemetry_schemas))
        else:
            rules.append(cls())
    return rules
