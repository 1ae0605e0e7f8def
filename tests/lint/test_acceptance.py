"""Acceptance corpora: the seeded-defect scenarios from the issues.

Unlike the per-rule sweep in ``test_fixtures.py`` (one rule at a time),
these corpora run under the FULL rule set and must produce *exactly
one* finding each — proving both that the seeded defect is caught and
that no other rule false-positives on otherwise-clean code:

* ``acceptance/wallclock_two_hops`` — a ``time.time()`` call two hops
  below ``sim/engine.py`` (engine -> flow helper -> clock helper, the
  last two in the root layer, outside every deterministic layer);
* ``acceptance/teardown_broadened`` — the ``runtime/parallel.py``
  pool-teardown kill loop with its ``except (OSError, ValueError)``
  narrowing deleted in favour of ``except Exception``;
* ``acceptance/policy_alias_mutation`` — a policy hook writing
  ``task.demand`` through a local alias (``t = task``), caught by the
  effect analysis with the alias chain in the message;
* ``acceptance/sig_capture_mutation`` — a list mutated *after* being
  captured into a ``_sig_*`` slot, inside ``__init__``, where writing
  the slot itself is legitimate (RPR905 exempts construction);
* ``acceptance/worker_bare_valueerror`` — a ``POOL_BOUNDARY`` worker
  entry raising a builtin ``ValueError`` that would cross the process
  pool raw.
"""

import pathlib

from repro.lint import LintEngine, build_rules

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
ACCEPTANCE = FIXTURES / "acceptance"


def run_full(corpus):
    engine = LintEngine(rules=build_rules(), root=FIXTURES)
    return engine.run([corpus])


class TestWallClockTwoHopsBelowEngine:
    def test_exactly_one_finding(self):
        report = run_full(ACCEPTANCE / "wallclock_two_hops")
        assert len(report.findings) == 1, [
            f"{f.rule}: {f.message}" for f in report.findings
        ]

    def test_finding_is_transitive_and_prints_the_full_path(self):
        (finding,) = run_full(ACCEPTANCE / "wallclock_two_hops").findings
        assert finding.rule == "RPR601"
        assert (
            "repro.sim.engine.tick -> repro.flowutil.step"
            " -> repro.clockutil.stamp" in finding.message
        )

    def test_finding_lands_on_the_sink_file(self):
        (finding,) = run_full(ACCEPTANCE / "wallclock_two_hops").findings
        assert finding.path.endswith("clockutil.py")


class TestTeardownNarrowingDeleted:
    def test_exactly_one_finding(self):
        report = run_full(ACCEPTANCE / "teardown_broadened")
        assert len(report.findings) == 1, [
            f"{f.rule}: {f.message}" for f in report.findings
        ]

    def test_finding_is_the_broad_except(self):
        (finding,) = run_full(ACCEPTANCE / "teardown_broadened").findings
        assert finding.rule == "RPR401"
        assert "Exception" in finding.message


class TestPolicyHookAliasMutation:
    def test_exactly_one_finding(self):
        report = run_full(ACCEPTANCE / "policy_alias_mutation")
        assert len(report.findings) == 1, [
            f"{f.rule}: {f.message}" for f in report.findings
        ]

    def test_finding_prints_the_alias_chain(self):
        (finding,) = run_full(ACCEPTANCE / "policy_alias_mutation").findings
        assert finding.rule == "RPR901"
        assert "alias chain: task -> t" in finding.message
        assert "GreedyBoostPolicy.on_task_dispatch" in finding.message
        assert "'task'" in finding.message

    def test_finding_lands_on_the_mutation_site(self):
        (finding,) = run_full(ACCEPTANCE / "policy_alias_mutation").findings
        assert finding.path.endswith("greedy.py")
        assert finding.line > 0


class TestPostCaptureSignatureMutation:
    def test_exactly_one_finding(self):
        report = run_full(ACCEPTANCE / "sig_capture_mutation")
        assert len(report.findings) == 1, [
            f"{f.rule}: {f.message}" for f in report.findings
        ]

    def test_finding_is_rpr904_with_capture_context(self):
        (finding,) = run_full(ACCEPTANCE / "sig_capture_mutation").findings
        assert finding.rule == "RPR904"
        assert "_sig_parts" in finding.message
        assert "captured 'parts'" in finding.message
        assert "call:append" in finding.message

    def test_finding_lands_on_the_mutation_not_the_capture(self):
        (finding,) = run_full(ACCEPTANCE / "sig_capture_mutation").findings
        assert finding.line == 12  # parts.append("late"), not the capture


class TestWorkerBareValueError:
    def test_exactly_one_finding(self):
        report = run_full(ACCEPTANCE / "worker_bare_valueerror")
        assert len(report.findings) == 1, [
            f"{f.rule}: {f.message}" for f in report.findings
        ]

    def test_finding_is_rpr906_with_the_raise_path(self):
        (finding,) = run_full(ACCEPTANCE / "worker_bare_valueerror").findings
        assert finding.rule == "RPR906"
        assert "ValueError" in finding.message
        assert "repro.runtime.points.run_point" in finding.message

    def test_full_rule_set_is_byte_stable_across_jobs(self):
        # The three effect corpora together, serial vs fanned out.
        corpora = [
            ACCEPTANCE / "policy_alias_mutation",
            ACCEPTANCE / "sig_capture_mutation",
            ACCEPTANCE / "worker_bare_valueerror",
        ]
        serial = LintEngine(rules=build_rules(), root=FIXTURES, jobs=1)
        fanned = LintEngine(rules=build_rules(), root=FIXTURES, jobs=4)
        serial_report = serial.run(corpora)
        fanned_report = fanned.run(corpora)
        assert [f.fingerprint() for f in serial_report.findings] == [
            f.fingerprint() for f in fanned_report.findings
        ]
        assert len(serial_report.findings) == 3
