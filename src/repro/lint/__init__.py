"""``repro lint`` — AST-based static invariant checking.

The reproduction's headline guarantees (bit-identical runs, memoized ==
cold recomputation, telemetry that validates against its schema) are
*invariants of the source*, not of any particular run.  This package
derives them statically, the way WCET/interference analyses derive
bounds from the program rather than sampling them: every rule encodes
one invariant the test suite otherwise only spot-checks.

Layout:

* :mod:`repro.lint.engine` — file walking, per-file AST dispatch
  (optionally fanned out over ``--jobs`` worker processes with
  byte-identical merged output), suppression comments
  (``# repro: lint-ok RPR### -- reason``), and baseline filtering;
* :mod:`repro.lint.graph` — the whole-program layer: per-file
  :class:`~repro.lint.graph.summary.ModuleSummary` extraction and the
  :class:`~repro.lint.graph.builder.ProjectGraph` symbol table / call
  graph with deterministic reachability, which corpus-level rules
  query;
* :mod:`repro.lint.effects` — per-function effect signatures
  (mutations, captures, escaping exception types) extracted per file
  and closed over the call graph by an SCC fixpoint; the
  plugin-contract, mutation-after-freeze, and exception-flow families
  consume them via ``consume_effects``;
* :mod:`repro.lint.dimflow` — per-function *unit* signatures
  (per-parameter/return dimensions under a small algebra of seconds,
  bytes, counts, and derived rates) closed over the same graph by the
  same SCC scheduling; the dimflow family (RPR810+) consumes them via
  ``consume_units`` and ``--units-output`` serializes the table;
* :mod:`repro.lint.rules` — the rule registry.  Each rule is a class
  with a stable id (``RPR###``) and a severity; rules are grouped into
  families (determinism, telemetry, executor hygiene, API hygiene,
  transitive determinism, pool safety, plugin-contract,
  mutation-after-freeze, exception-flow, dimflow);
* :mod:`repro.lint.reporters` — ``text``, ``json``, and ``sarif``
  renderers plus baseline read/write (fingerprints are
  whitespace-normalized, so baselines survive reformatting);
* :mod:`repro.lint.cache` — the ``--cache-dir`` content-hash scan
  cache (warm runs skip unchanged files, byte-identically);
* :mod:`repro.lint.explain` — ``--explain RPR###`` rendering.

Run it as ``python -m repro lint [paths] [--rule RPR###] [--format
text|json|sarif] [--baseline PATH] [--jobs N] [--cache-dir DIR]``; the
rule catalogue lives in ``docs/static_analysis.md`` (and is
parity-tested against the registry, so it cannot drift).
"""

from repro.lint.engine import (
    FileContext,
    FileScan,
    Finding,
    LintEngine,
    LintReport,
    Suppressions,
    iter_python_files,
    layer_for_path,
)
from repro.lint.explain import explain_rule
from repro.lint.graph import ModuleSummary, ProjectGraph, extract_summary
from repro.lint.reporters import (
    findings_to_baseline,
    load_baseline,
    normalize_fingerprint,
    render_json,
    render_sarif,
    render_text,
    write_baseline,
)
from repro.lint.rules import (
    DETERMINISTIC_LAYERS,
    META_RULES,
    RULE_FAMILIES,
    Rule,
    all_rule_ids,
    build_rules,
    rule_catalogue,
)

__all__ = [
    "DETERMINISTIC_LAYERS",
    "FileContext",
    "FileScan",
    "Finding",
    "LintEngine",
    "LintReport",
    "META_RULES",
    "ModuleSummary",
    "ProjectGraph",
    "RULE_FAMILIES",
    "Rule",
    "Suppressions",
    "all_rule_ids",
    "build_rules",
    "explain_rule",
    "extract_summary",
    "findings_to_baseline",
    "iter_python_files",
    "layer_for_path",
    "load_baseline",
    "normalize_fingerprint",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalogue",
    "write_baseline",
]
