"""Lint engine: file discovery, AST dispatch, suppressions, baselines.

The engine is deliberately small: it reads each file once, parses it
once, hands the tree to every applicable rule, then runs each rule's
corpus-level ``finalize`` hook.  Everything rule-specific lives in
:mod:`repro.lint.rules`; everything presentation-specific lives in
:mod:`repro.lint.reporters`.

The per-file pass (parse, per-file rules, suppression filtering,
module-summary extraction) is a pure function of one file, so
``jobs > 1`` fans it out over a process pool: files are chunked in
discovery order, each worker returns picklable :class:`FileScan`
records, and the parent merges them back in that same order — output
is byte-identical to the serial run.  The whole-program phase that
follows (corpus rules, project call graph, then the effect-signature
fixpoint for rules that set ``needs_effects``, ``finalize``) always
runs single-process in the parent, over the merged summaries.

Two findings are emitted by the engine itself rather than by a rule
class (they are registered as *meta rules* so ``--rule`` filtering,
the docs catalogue, and the fixtures corpus treat them uniformly):

* ``RPR001`` — a file that does not parse;
* ``RPR002`` — a malformed suppression comment (missing reason, or an
  unknown rule id).

Suppression syntax (reason required — an unexplained suppression is
itself a finding)::

    do_risky_thing()  # repro: lint-ok RPR403 -- ordering proven fixed here

A suppression comment on its own line applies to the next line, so
long statements stay readable.
"""

from __future__ import annotations

import ast
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.lint.graph.summary import ModuleSummary, extract_summary

__all__ = [
    "EXCLUDED_DIR_NAMES",
    "FileContext",
    "FileScan",
    "Finding",
    "LintEngine",
    "LintReport",
    "PACKAGE_LAYERS",
    "POOL_BOUNDARY",
    "Suppressions",
    "iter_python_files",
    "layer_for_path",
]

#: Functions that execute inside ``--jobs`` worker processes (the
#: pool-safety rules treat these as worker-reachable roots).
POOL_BOUNDARY: Tuple[str, ...] = ("_scan_worker",)

#: Directory names the recursive walker never descends into.  The lint
#: fixtures corpus is excluded by name: its known-bad snippets exist to
#: fail, and must not make ``repro lint tests`` fail with them.
#: Explicitly listed *files* are always linted, excluded or not.
EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".repro-cache",
        "build",
        "dist",
        "fixtures",
        "node_modules",
    }
)

#: Package sub-directories of ``repro`` that name an architectural
#: layer; see :func:`layer_for_path`.
_LAYER_DIRS = frozenset(
    {
        "analysis",
        "core",
        "lint",
        "memory",
        "runtime",
        "sim",
        "stream",
        "workloads",
    }
)


#: Every layer of the shipped package: the layer directories plus
#: ``root`` (modules directly under ``repro/``).
PACKAGE_LAYERS = _LAYER_DIRS | {"root"}


def layer_for_path(path: Path) -> str:
    """Architectural layer of a file, derived from its path.

    ``.../repro/<layer>/...`` maps to ``<layer>`` (this also holds for
    fixture corpora that embed a ``repro/<layer>/`` spine, which is how
    layer-scoped rules are exercised by tests); a module directly under
    ``repro/`` (``units.py``, ``cli.py``) maps to ``"root"``; anything
    under a ``tests`` directory maps to ``"tests"``; everything else to
    ``"unknown"`` (no layer-scoped rule applies there).
    """
    parts = path.parts
    for index, part in enumerate(parts[:-1]):
        if part == "repro" and parts[index + 1] in _LAYER_DIRS:
            return parts[index + 1]
    if "repro" in parts[:-1]:
        return "root"
    if "tests" in parts:
        return "tests"
    return "unknown"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``line`` is 1-based; corpus-level findings (no single source line)
    use line 0.  ``source_line`` carries the stripped text of the
    offending line so baselines survive unrelated line-number shifts.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def fingerprint(self) -> str:
        """Stable identity used by ``--baseline`` filtering.

        Line numbers are deliberately absent and the source context is
        whitespace-collapsed, so a fingerprint survives insertions
        above the finding *and* reformatting around it (re-indentation,
        wrapped arguments).  ``load_baseline`` applies the same
        collapse to old baselines, so files written before the
        normalization keep matching.
        """
        context = " ".join(self.source_line.split())
        return f"{self.rule}:{self.path}:{context}"


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    lines: Tuple[str, ...]
    layer: str

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*lint-ok\s+(?P<id>RPR\d{3})\s*(?:[-—:,]+\s*(?P<reason>\S.*))?$"
)


class Suppressions:
    """Per-file map of ``# repro: lint-ok`` directives.

    A directive on a line with code applies to that line; a directive
    on a comment-only line applies to the next line.  Malformed
    directives (missing reason, unknown rule id) surface as ``RPR002``
    findings instead of silently suppressing nothing.
    """

    def __init__(
        self,
        ctx: FileContext,
        known_ids: Set[str],
    ) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.errors: List[Finding] = []
        for lineno, text in enumerate(ctx.lines, start=1):
            match = _SUPPRESSION_RE.search(text)
            if match is None:
                continue
            rule_id = match.group("id")
            reason = (match.group("reason") or "").strip()
            if rule_id not in known_ids:
                self.errors.append(
                    Finding(
                        rule="RPR002",
                        severity="error",
                        path=ctx.display_path,
                        line=lineno,
                        col=match.start() + 1,
                        message=(
                            f"suppression names unknown rule {rule_id}; "
                            "known ids are RPR###, see docs/static_analysis.md"
                        ),
                        source_line=ctx.line_text(lineno),
                    )
                )
                continue
            if not reason:
                self.errors.append(
                    Finding(
                        rule="RPR002",
                        severity="error",
                        path=ctx.display_path,
                        line=lineno,
                        col=match.start() + 1,
                        message=(
                            f"suppression of {rule_id} has no reason; write "
                            f"'# repro: lint-ok {rule_id} -- why it is safe'"
                        ),
                        source_line=ctx.line_text(lineno),
                    )
                )
                continue
            target = lineno
            if text.lstrip().startswith("#"):
                target = lineno + 1  # comment-only line guards the next one
            self.by_line.setdefault(target, set()).add(rule_id)

    def covers(self, finding: Finding) -> bool:
        return finding.rule in self.by_line.get(finding.line, ())


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every Python file under ``paths``.

    Directories are walked recursively, skipping
    :data:`EXCLUDED_DIR_NAMES` (and ``*.egg-info``); a path given
    explicitly is yielded even if an exclusion would have hidden it,
    so ``repro lint tests/lint/fixtures/... `` works for fixture
    authors.
    """
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path)
                skip = any(
                    part in EXCLUDED_DIR_NAMES or part.endswith(".egg-info")
                    for part in relative.parts[:-1]
                )
                if not skip:
                    yield candidate
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise ReproError(f"lint path does not exist: {path}")


@dataclass(frozen=True)
class FileScan:
    """Picklable product of the per-file pass over one file.

    ``findings`` are already suppression-filtered; the surviving
    suppression map rides along so corpus-level findings (anchored to
    a line of this file but produced after every file was scanned)
    honour ``# repro: lint-ok`` directives too.
    """

    display_path: str
    parse_failed: bool = False
    findings: Tuple[Finding, ...] = ()
    suppressed: int = 0
    suppression_lines: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    summary: Optional[ModuleSummary] = None


def _scan_one(
    path: Path,
    display_path: str,
    rules: Sequence["Rule"],  # noqa: F821 — repro.lint.rules.base
    known_ids: Set[str],
    need_summary: bool,
) -> FileScan:
    """Parse one file, run the per-file rules, extract its summary."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return FileScan(display_path=display_path, parse_failed=True)
    ctx = FileContext(
        path=path,
        display_path=display_path,
        source=source,
        tree=tree,
        lines=tuple(source.splitlines()),
        layer=layer_for_path(Path(display_path)),
    )
    suppressions = Suppressions(ctx, known_ids)
    raw: List[Finding] = list(suppressions.errors)
    for rule in rules:
        if rule.applies_to(ctx):
            raw.extend(rule.check(ctx))
    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        if suppressions.covers(finding):
            suppressed += 1
        else:
            kept.append(finding)
    summary = None
    if need_summary:
        summary = extract_summary(tree, display_path, ctx.layer)
    return FileScan(
        display_path=display_path,
        findings=tuple(kept),
        suppressed=suppressed,
        suppression_lines=tuple(
            (line, tuple(sorted(ids)))
            for line, ids in sorted(suppressions.by_line.items())
        ),
        summary=summary,
    )


def _scan_worker(
    batch: Sequence[Tuple[str, str]],
    rules: Sequence["Rule"],  # noqa: F821
    known_ids: Set[str],
    need_summary: bool,
) -> List[FileScan]:
    """Worker-side entry point: scan one contiguous chunk of files."""
    return [
        _scan_one(Path(path), display, rules, known_ids, need_summary)
        for path, display in batch
    ]


@dataclass
class LintReport:
    """Outcome of one engine run."""

    findings: List[Finding]
    files_scanned: int
    suppressed: int = 0
    baselined: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    #: Files whose per-file pass was served from ``--cache-dir``.
    cache_hits: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


@dataclass
class LintEngine:
    """Runs a rule set over a file corpus.

    Args:
        rules: Rule instances (fresh per run — corpus rules accumulate
            state between files).  Build them with
            :func:`repro.lint.rules.build_rules`.
        enabled: Optional restriction to a set of rule ids (the CLI's
            ``--rule``); meta findings (RPR001/RPR002) obey it too.
        root: Paths in findings are rendered relative to this
            directory when possible, for stable output across checkouts.
        baseline: Fingerprints of findings to drop (pre-existing debt
            that has been explicitly accepted); see
            :func:`repro.lint.reporters.load_baseline`.
        jobs: Worker processes for the per-file pass (1 = in-process;
            merged output is identical either way).
        want_graph: Build the project call graph even when no enabled
            rule asks for it (``--graph-output`` serializes it).
        want_units: Run the interprocedural unit fixpoint even when no
            enabled rule asks for it (``--units-output`` serializes the
            inferred signature table); implies the graph.
        cache_dir: Directory for the content-hash scan cache (the
            CLI's ``--cache-dir``); ``None`` disables caching.  See
            :mod:`repro.lint.cache` — warm runs are byte-identical to
            cold ones.

    After :meth:`run`, :attr:`graph` holds the
    :class:`~repro.lint.graph.builder.ProjectGraph` built for this
    corpus (or ``None`` when nothing needed one), and :attr:`units`
    the :class:`~repro.lint.dimflow.fixpoint.UnitAnalysis` when a
    ``needs_units`` rule ran or :attr:`want_units` was set.
    """

    rules: List["Rule"]  # noqa: F821 — see repro.lint.rules.base
    enabled: Optional[Set[str]] = None
    root: Optional[Path] = None
    baseline: Set[str] = field(default_factory=set)
    jobs: int = 1
    want_graph: bool = False
    want_units: bool = False
    cache_dir: Optional[Path] = None
    graph: Optional["ProjectGraph"] = field(  # noqa: F821
        default=None, init=False, repr=False
    )
    units: Optional["UnitAnalysis"] = field(  # noqa: F821
        default=None, init=False, repr=False
    )

    def run(self, paths: Sequence[Path]) -> LintReport:
        started = time.monotonic()
        if self.jobs < 1:
            raise ReproError(f"lint --jobs must be >= 1, got {self.jobs}")
        files = list(dict.fromkeys(iter_python_files([Path(p) for p in paths])))
        known_ids = self._known_ids()
        per_file_rules = [r for r in self.rules if not r.corpus_level]
        corpus_rules = [r for r in self.rules if r.corpus_level]
        build_graph = (
            self.want_graph
            or self.want_units
            or any(r.needs_graph for r in self.rules)
        )
        need_summary = build_graph or bool(corpus_rules)

        scans, cache_hits = self._scan_files(
            files, per_file_rules, known_ids, need_summary
        )

        collected: List[Finding] = []
        suppressed = 0
        for file_path, scan in zip(files, scans):
            if scan.parse_failed:
                collected.append(self._parse_failure(file_path))
            else:
                collected.extend(scan.findings)
                suppressed += scan.suppressed

        summaries = [s.summary for s in scans if s.summary is not None]
        if build_graph:
            from repro.lint.graph.builder import ProjectGraph

            self.graph = ProjectGraph(summaries)
        for rule in corpus_rules:
            for summary in summaries:
                rule.consume_summary(summary)
        for rule in self.rules:
            if rule.needs_graph and self.graph is not None:
                rule.consume_graph(self.graph)
        if self.graph is not None and any(
            getattr(r, "needs_effects", False) for r in self.rules
        ):
            from repro.lint.effects.fixpoint import EffectAnalysis

            analysis = EffectAnalysis(self.graph, summaries)
            for rule in self.rules:
                if getattr(rule, "needs_effects", False):
                    rule.consume_effects(analysis)
        if self.graph is not None and (
            self.want_units
            or any(getattr(r, "needs_units", False) for r in self.rules)
        ):
            from repro.lint.dimflow.fixpoint import UnitAnalysis

            self.units = UnitAnalysis(self.graph, summaries)
            for rule in self.rules:
                if getattr(rule, "needs_units", False):
                    rule.consume_units(self.units)

        suppression_maps = {
            scan.display_path: dict(scan.suppression_lines) for scan in scans
        }
        for rule in self.rules:
            for finding in rule.finalize():
                lines = suppression_maps.get(finding.path, {})
                if finding.rule in lines.get(finding.line, ()):
                    suppressed += 1
                else:
                    collected.append(finding)

        if self.enabled is not None:
            collected = [f for f in collected if f.rule in self.enabled]
        baselined = 0
        if self.baseline:
            kept = []
            for finding in collected:
                if finding.fingerprint() in self.baseline:
                    baselined += 1
                else:
                    kept.append(finding)
            collected = kept
        collected.sort(key=Finding.sort_key)
        return LintReport(
            findings=collected,
            files_scanned=len(files),
            suppressed=suppressed,
            baselined=baselined,
            wall_seconds=time.monotonic() - started,
            jobs=self.jobs,
            cache_hits=cache_hits,
        )

    # ------------------------------------------------------------------

    def _scan_files(
        self,
        files: Sequence[Path],
        rules: Sequence["Rule"],  # noqa: F821
        known_ids: Set[str],
        need_summary: bool,
    ) -> Tuple[List[FileScan], int]:
        """Per-file pass, serial or fanned out; order follows ``files``.

        With ``cache_dir`` set, files whose content hash (plus run
        token) has a cached :class:`FileScan` skip scanning entirely;
        only the misses go to the pool.  The merged result is
        positionally identical to an uncached run.
        """
        pairs = [(str(path), self._display(path)) for path in files]
        cache = None
        cache_keys: Dict[int, str] = {}
        results: Dict[int, FileScan] = {}
        if self.cache_dir is not None:
            from repro.lint.cache import ScanCache, cache_token

            cache = ScanCache(
                Path(self.cache_dir),
                cache_token(rules, known_ids, need_summary),
            )
            for index, (p, display) in enumerate(pairs):
                try:
                    content = Path(p).read_bytes()
                except OSError:
                    continue  # unreadable: let _scan_one report it
                key = cache.key(display, content)
                cache_keys[index] = key
                hit = cache.load(key)
                if hit is not None:
                    results[index] = hit
        pending = [
            (index, pair)
            for index, pair in enumerate(pairs)
            if index not in results
        ]
        if self.jobs == 1 or len(pending) < 2:
            fresh = [
                _scan_one(Path(p), display, rules, known_ids, need_summary)
                for _, (p, display) in pending
            ]
        else:
            workers = min(self.jobs, len(pending))
            chunk = max(
                1, (len(pending) + workers * 4 - 1) // (workers * 4)
            )
            batches = [
                [pair for _, pair in pending[start:start + chunk]]
                for start in range(0, len(pending), chunk)
            ]
            fresh = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _scan_worker, batch, rules, known_ids, need_summary
                    )
                    for batch in batches
                ]
                for future in futures:  # submission order == file order
                    fresh.extend(future.result())
        for (index, _), scan in zip(pending, fresh):
            results[index] = scan
            if cache is not None and index in cache_keys:
                cache.store(cache_keys[index], scan)
        return [results[index] for index in range(len(pairs))], (
            cache.hits if cache is not None else 0
        )

    def _known_ids(self) -> Set[str]:
        # A suppression naming any registered rule is well-formed even
        # when --rule restricts which rules actually run.
        from repro.lint.rules import all_rule_ids

        return set(all_rule_ids()) | {rule.id for rule in self.rules}

    def _display(self, path: Path) -> str:
        root = self.root or Path.cwd()
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def _parse_failure(self, path: Path) -> Finding:
        return Finding(
            rule="RPR001",
            severity="error",
            path=self._display(path),
            line=0,
            col=0,
            message="file does not parse as Python (or is unreadable)",
        )
