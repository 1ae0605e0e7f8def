"""docs/static_analysis.md cannot drift from the rule registry.

Same pattern as the telemetry docs-parity test: parse the markdown
tables and compare them field by field against
:func:`repro.lint.rules.rule_catalogue` and :data:`RULE_FAMILIES`.
Adding, removing, retitling, or reclassifying a rule without updating
the catalogue fails here.
"""

import pathlib
import re

from repro.lint import RULE_FAMILIES, rule_catalogue

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "static_analysis.md"

_CATALOGUE_ROW = re.compile(
    r"^\| `(?P<id>RPR\d{3})` \| (?P<family>[\w-]+) \| (?P<severity>\w+) "
    r"\| (?P<title>[^|]+) \|$",
    re.MULTILINE,
)
_FAMILY_ROW = re.compile(r"^\| (?P<family>[\w-]+) \| (?P<desc>[^|]+) \|$", re.MULTILINE)


def parse_catalogue():
    rows = {}
    for match in _CATALOGUE_ROW.finditer(DOCS.read_text()):
        rows[match.group("id")] = {
            "family": match.group("family"),
            "severity": match.group("severity"),
            "title": match.group("title").strip(),
        }
    return rows


class TestCatalogueParity:
    def test_docs_list_exactly_the_registered_rules(self):
        documented = parse_catalogue()
        registered = {str(row["id"]) for row in rule_catalogue()}
        assert set(documented) == registered, (
            "docs/static_analysis.md catalogue and the rule registry "
            "disagree on which rule ids exist"
        )

    def test_every_field_matches(self):
        documented = parse_catalogue()
        for row in rule_catalogue():
            doc = documented[str(row["id"])]
            for field in ("family", "severity", "title"):
                assert doc[field] == row[field], (
                    f"docs say {row['id']}.{field} = {doc[field]!r}; "
                    f"the registry says {row[field]!r}"
                )

    def test_family_table_matches_registry(self):
        text = DOCS.read_text()
        documented = {
            m.group("family"): m.group("desc").strip()
            for m in _FAMILY_ROW.finditer(text)
            if m.group("family") != "family"  # header row
        }
        assert documented == RULE_FAMILIES

    def test_every_rule_has_a_fixture_pointer(self):
        # The prose promises per-rule fixtures; the sweep test enforces
        # their existence — here we only pin the promise itself.
        assert "tests/lint/fixtures" in DOCS.read_text()
