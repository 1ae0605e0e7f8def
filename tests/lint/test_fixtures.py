"""Fixture-corpus sweep: every rule catches its bad and passes its good.

Each rule id has a directory under ``tests/lint/fixtures/<ID>/`` with a
``bad/`` corpus (must produce at least one finding *of that rule*) and
a ``good/`` corpus (must produce none).  Layer-scoped rules embed a
``repro/<layer>/`` spine in their fixture paths, which is exactly how
:func:`repro.lint.engine.layer_for_path` resolves layers.  The test is
parametrized over the registry, so adding a rule without fixtures
fails here — the corpus can never lag the rule set.
"""

import json
import pathlib
import re

import pytest

from repro.errors import ConfigurationError
from repro.lint import LintEngine, all_rule_ids, build_rules

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def run_rule(rule_id, corpus, schemas=None):
    rules = build_rules(only=[rule_id], telemetry_schemas=schemas)
    engine = LintEngine(rules=rules, enabled={rule_id}, root=FIXTURES)
    return engine.run([corpus])


def injected_schemas(rule_id):
    config = FIXTURES / rule_id / "config.json"
    if config.exists():
        return set(json.loads(config.read_text())["schemas"])
    return None


@pytest.mark.parametrize("rule_id", all_rule_ids())
class TestEveryRuleHasFixtures:
    def test_fixture_directories_exist(self, rule_id):
        assert (FIXTURES / rule_id / "bad").is_dir(), (
            f"{rule_id} ships without a known-bad fixture corpus"
        )
        assert (FIXTURES / rule_id / "good").is_dir(), (
            f"{rule_id} ships without a known-good fixture corpus"
        )

    def test_bad_corpus_fails(self, rule_id):
        report = run_rule(
            rule_id, FIXTURES / rule_id / "bad", injected_schemas(rule_id)
        )
        assert report.findings, f"{rule_id} missed its known-bad fixture"
        assert all(f.rule == rule_id for f in report.findings)

    def test_good_corpus_passes(self, rule_id):
        report = run_rule(
            rule_id, FIXTURES / rule_id / "good", injected_schemas(rule_id)
        )
        assert not report.findings, (
            f"{rule_id} false-positives on its known-good fixture: "
            f"{[f.message for f in report.findings]}"
        )


def test_every_fixture_directory_names_a_registered_rule():
    # A corpus whose rule was retired or renumbered would silently stop
    # being run by the sweep above; it must move under its successor.
    registered = set(all_rule_ids())
    orphans = sorted(
        path.name
        for path in FIXTURES.iterdir()
        if re.fullmatch(r"RPR\d{3}", path.name)
        and any((path / kind).is_dir() for kind in ("bad", "good"))
        and path.name not in registered
    )
    assert not orphans, f"fixture corpora for unregistered rules: {orphans}"


#: Known-bad files of the retired per-file rules, now run under the
#: whole-program rule that took over their defect class.
RETIRED_BAD_FIXTURES = [
    ("RPR601", "sim/wallclock.py"),  # was RPR101
    ("RPR603", "memory/env_read.py"),  # was RPR103
    ("RPR604", "core/uses_hash.py"),  # was RPR104
    ("RPR905", "frozen_mut.py"),  # was RPR201
    ("RPR905", "slots_cohort_mut.py"),  # was RPR202
    ("RPR905", "slots_sig_mut.py"),  # was RPR202
    ("RPR813", "memory/budget.py"),  # was RPR801
    ("RPR813", "memory/limits.py"),  # was RPR802
]


@pytest.mark.parametrize("rule_id, suffix", RETIRED_BAD_FIXTURES)
def test_retired_rule_fixture_fails_under_its_successor(rule_id, suffix):
    report = run_rule(rule_id, FIXTURES / rule_id / "bad")
    assert any(f.path.endswith(suffix) for f in report.findings), (
        f"{rule_id} no longer catches {suffix}"
    )


#: Each retired per-file rule id and the whole-program rule that took
#: over its defect class.
RETIRED_RULES = {
    "RPR101": "RPR601",
    "RPR103": "RPR603",
    "RPR104": "RPR604",
    "RPR201": "RPR905",
    "RPR202": "RPR905",
    "RPR801": "RPR813",
    "RPR802": "RPR813",
}

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "static_analysis.md"

_RETIRED_ROW = re.compile(
    r"^\| `(?P<retired>RPR\d{3})` [^|]+ \| `(?P<successor>RPR\d{3})` \|",
    re.MULTILINE,
)


@pytest.mark.parametrize("retired", sorted(RETIRED_RULES))
class TestRetiredRules:
    def test_it_is_gone_and_its_successor_is_registered(self, retired):
        registered = set(all_rule_ids())
        assert retired not in registered
        assert RETIRED_RULES[retired] in registered

    def test_docs_name_its_successor(self, retired):
        rows = {
            m.group("retired"): m.group("successor")
            for m in _RETIRED_ROW.finditer(DOCS.read_text())
        }
        assert rows.get(retired) == RETIRED_RULES[retired]


def test_suppression_naming_a_retired_rule_is_an_unknown_rule(tmp_path):
    # A stale suppression must not silently keep suppressing nothing.
    retired = "RPR201"
    target = tmp_path / "m.py"
    target.write_text(f"X = 1  # repro: lint-ok {retired} -- stale id\n")
    engine = LintEngine(rules=build_rules(), root=tmp_path)
    report = engine.run([target])
    assert [f.rule for f in report.findings] == ["RPR002"]
    assert retired in report.findings[0].message


def test_selecting_a_retired_rule_is_rejected():
    with pytest.raises(ConfigurationError, match="RPR801"):
        build_rules(only=["RPR801"])


class TestFixtureFindingDetails:
    def test_unseeded_constructors_need_an_argument(self):
        report = run_rule("RPR102", FIXTURES / "RPR102" / "bad")
        messages = " ".join(f.message for f in report.findings)
        assert "random.Random() without a seed" in messages
        assert "numpy.random.default_rng() without a seed" in messages

    def test_wallclock_names_the_call(self):
        report = run_rule("RPR601", FIXTURES / "RPR601" / "bad")
        messages = " ".join(f.message for f in report.findings)
        assert "time.time()" in messages
        assert "datetime.datetime.now()" in messages
        assert "time.perf_counter()" in messages  # aliased import resolved

    def test_zero_hop_sink_is_flagged_in_its_own_layer(self):
        report = run_rule("RPR601", FIXTURES / "RPR601" / "bad")
        inside = [f for f in report.findings if f.path.endswith("sim/wallclock.py")]
        assert len(inside) == 3
        assert all("in deterministic layer 'sim'" in f.message for f in inside)

    def test_import_time_sinks_and_late_imports_are_flagged(self):
        report = run_rule("RPR601", FIXTURES / "RPR601" / "bad")
        found = {
            (f.line, f.message.split(" ")[0])
            for f in report.findings
            if f.path.endswith("sim/import_time.py")
        }
        assert found == {
            (7, "time.time()"),  # module-level statement
            (11, "time.monotonic()"),  # class body
            (15, "time.perf_counter()"),  # via an import below the def
        }

    def test_unit_mixes_at_module_scope_are_flagged(self):
        report = run_rule("RPR813", FIXTURES / "RPR813" / "bad")
        lines = sorted(
            f.line for f in report.findings if f.path.endswith("constants.py")
        )
        assert lines == [6, 11]  # module-level constant, class body

    def test_unit_mixes_nested_in_containers_are_flagged(self):
        report = run_rule("RPR813", FIXTURES / "RPR813" / "bad")
        ops = sorted(
            f.message.split("`")[1]
            for f in report.findings
            if f.path.endswith("pairs.py")
        )
        assert ops == ["+", "-"]  # inside a tuple, inside a subscript

    def test_unit_suffixed_locals_are_read_by_their_suffix(self):
        report = run_rule("RPR813", FIXTURES / "RPR813" / "bad")
        lines = sorted(
            f.line for f in report.findings if f.path.endswith("suffixed.py")
        )
        assert lines == [8, 13]  # bound to an unknown call, to another unit

    def test_closure_writes_count_in_their_method(self):
        report = run_rule("RPR905", FIXTURES / "RPR905" / "bad")
        found = sorted(
            (f.line, f.message.split(" ")[0])
            for f in report.findings
            if f.path.endswith("closure_mut.py")
        )
        assert found == [(13, "Snapshot.value"), (27, "Running._sig_work")]

    def test_classes_nested_in_a_class_are_protected(self):
        report = run_rule("RPR905", FIXTURES / "RPR905" / "bad")
        found = sorted(
            (f.line, f.message.split(" ")[0])
            for f in report.findings
            if f.path.endswith("nested_class_mut.py")
        )
        assert found == [(13, "Outer.Snapshot.value"), (22, "Outer.Running._sig_work")]

    def test_layer_scoping_allows_runtime_wallclock(self):
        # The good corpus contains a time.perf_counter() under
        # repro/runtime/ that no model function reaches — scoping, not
        # luck, is what passes it.
        good = FIXTURES / "RPR601" / "good" / "repro" / "runtime" / "measured.py"
        assert "perf_counter" in good.read_text()

    def test_suppression_with_reason_is_counted(self):
        report = run_rule("RPR401", FIXTURES / "RPR401" / "good")
        assert report.suppressed == 1

    def test_orphan_schema_names_the_missing_event(self):
        report = run_rule(
            "RPR302", FIXTURES / "RPR302" / "bad", schemas={"alpha", "beta"}
        )
        (finding,) = report.findings
        assert "'beta'" in finding.message
