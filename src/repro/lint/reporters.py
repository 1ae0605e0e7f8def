"""Rendering and baseline persistence for lint reports.

Three formats: ``text`` (one ``path:line:col: RPR### [severity]
message`` line per finding plus a summary), ``json`` (a stable
machine-readable document the CI job uploads as an artifact next to
``BENCH_sim.json``), and ``sarif`` (SARIF 2.1.0, the interchange
format code-scanning UIs ingest).  Baselines are JSON files of
finding fingerprints — accepted pre-existing debt that stops failing
the build without a suppression comment at every site.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Set, Union

from repro.errors import ReproError
from repro.lint.engine import Finding, LintReport

__all__ = [
    "LINT_REPORT_VERSION",
    "normalize_fingerprint",
    "render_text",
    "render_json",
    "render_sarif",
    "findings_to_baseline",
    "load_baseline",
    "write_baseline",
]

#: Bump when the JSON report's shape changes.
#: 2: added ``wall_seconds`` and ``jobs``.
#: 3: added ``cache_hits``; fingerprints whitespace-normalized.
LINT_REPORT_VERSION = 3

#: SARIF partialFingerprints key; bump with the fingerprint scheme.
_SARIF_FINGERPRINT_KEY = "reproLint/v1"


def normalize_fingerprint(fingerprint: str) -> str:
    """Collapse whitespace in a fingerprint's source-context part.

    Fingerprints are ``rule:path:source-context``.  The context is the
    stripped source line (or a rendered chain for corpus findings), so
    reformatting — re-indentation, argument wrapping — used to churn
    baselines even though nothing moved.  ``Finding.fingerprint`` now
    emits collapsed contexts; applying the same collapse when *loading*
    a baseline migrates pre-normalization files transparently.  The
    function is idempotent, so already-normalized input passes through.
    """
    parts = fingerprint.split(":", 2)
    if len(parts) != 3:
        return fingerprint
    rule, path, context = parts
    return f"{rule}:{path}:{' '.join(context.split())}"


def _finding_dict(finding: Finding) -> Dict[str, Any]:
    return {
        "rule": finding.rule,
        "severity": finding.severity,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "fingerprint": finding.fingerprint(),
    }


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [
        f"{f.location()}: {f.rule} [{f.severity}] {f.message}"
        for f in report.findings
    ]
    summary = (
        f"{len(report.findings)} finding(s) "
        f"({report.errors} error(s), {report.warnings} warning(s)) "
        f"in {report.files_scanned} file(s)"
    )
    extras = []
    if report.suppressed:
        extras.append(f"{report.suppressed} suppressed")
    if report.baselined:
        extras.append(f"{report.baselined} baselined")
    if extras:
        summary += " — " + ", ".join(extras)
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact format)."""
    document = {
        "version": LINT_REPORT_VERSION,
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed,
        "baselined": report.baselined,
        "cache_hits": report.cache_hits,
        "wall_seconds": round(report.wall_seconds, 6),
        "jobs": report.jobs,
        "summary": {
            "errors": report.errors,
            "warnings": report.warnings,
            "by_rule": report.counts_by_rule(),
        },
        "findings": [_finding_dict(f) for f in report.findings],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def _sarif_result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": _SARIF_LEVELS.get(finding.severity, "note"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        # SARIF lines are 1-based; corpus findings
                        # anchored at line 0 clamp to 1.
                        "startLine": max(1, finding.line),
                        "startColumn": max(1, finding.col + 1),
                    },
                }
            }
        ],
        "partialFingerprints": {
            _SARIF_FINGERPRINT_KEY: finding.fingerprint(),
        },
    }


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 report, the format code-scanning services ingest.

    The driver carries the full rule catalogue (id, title, family,
    default level) so viewers can show metadata for rules with zero
    results, and every result carries the same fingerprint the
    baseline mechanism uses under ``partialFingerprints``.
    """
    from repro.lint.rules import rule_catalogue

    rules = [
        {
            "id": entry["id"],
            "name": entry["id"],
            "shortDescription": {"text": entry["title"]},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(entry["severity"], "note"),
            },
            "properties": {"family": entry["family"]},
        }
        for entry in rule_catalogue()
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": str(LINT_REPORT_VERSION),
                        "informationUri": (
                            "https://example.invalid/repro/docs/"
                            "static_analysis.md"
                        ),
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": [_sarif_result(f) for f in report.findings],
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def findings_to_baseline(report: LintReport) -> str:
    """Serialise the current findings as an accepted-debt baseline."""
    document = {
        "version": LINT_REPORT_VERSION,
        "fingerprints": sorted({f.fingerprint() for f in report.findings}),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_baseline(report: LintReport, path: Union[str, pathlib.Path]) -> None:
    pathlib.Path(path).write_text(findings_to_baseline(report))


def load_baseline(path: Union[str, pathlib.Path]) -> Set[str]:
    """Read a baseline file's fingerprints.

    Raises :class:`~repro.errors.ReproError` on malformed documents —
    a silently empty baseline would resurrect every accepted finding.
    """
    try:
        document = json.loads(pathlib.Path(path).read_text())
    except OSError as exc:
        raise ReproError(f"cannot read lint baseline {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ReproError(f"lint baseline {path} is not valid JSON: {exc}")
    fingerprints = document.get("fingerprints") if isinstance(document, dict) else None
    if not isinstance(fingerprints, list) or not all(
        isinstance(item, str) for item in fingerprints
    ):
        raise ReproError(
            f"lint baseline {path} must contain a 'fingerprints' string list"
        )
    # Normalize on load: baselines written before the whitespace
    # collapse keep matching without a rewrite.
    return {normalize_fingerprint(item) for item in fingerprints}
