"""``--explain``: every rule id renders metadata plus its doc section."""

import pytest

from repro.errors import ConfigurationError
from repro.lint import all_rule_ids, explain_rule, rule_catalogue
from repro.lint.explain import doc_section_for


@pytest.mark.parametrize("rule_id", all_rule_ids())
class TestEveryRuleExplains:
    def test_explanation_is_nonempty_and_titled(self, rule_id):
        text = explain_rule(rule_id)
        assert text.startswith(f"{rule_id}: ")
        assert "family: " in text
        assert "severity: " in text

    def test_doc_section_is_found(self, rule_id):
        section = doc_section_for(rule_id)
        assert section.startswith("### "), (
            f"{rule_id} has no docs/static_analysis.md section — "
            "add it to a '### ... (RPR###–RPR###)' heading"
        )
        assert len(section.splitlines()) > 3


class TestExplainDetails:
    def test_unknown_id_rejected_like_rule_flag(self):
        with pytest.raises(ConfigurationError, match="unknown lint rule id"):
            explain_rule("RPR999")

    def test_explanation_embeds_the_catalogue_title(self):
        titles = {e["id"]: e["title"] for e in rule_catalogue()}
        text = explain_rule("RPR906")
        assert titles["RPR906"] in text

    def test_range_headings_cover_interior_ids(self):
        # RPR603 is named by no heading directly — only the range
        # RPR601–RPR604 covers it.
        section = doc_section_for("RPR603")
        assert "Transitive determinism" in section.splitlines()[0]

    def test_missing_section_degrades_not_fails(self):
        assert doc_section_for("RPR901", docs_text="# no sections here\n") == ""
