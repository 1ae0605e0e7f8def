"""Pool-safety rules (RPR701–RPR703).

Everything crossing the ``ProcessPoolExecutor`` boundary runs in a
child process: the callable must pickle (top-level function, not a
lambda, closure, or method), and the code it reaches must not rely on
parent-process state — module-global mutation is invisible to the
parent (and to the other workers), and telemetry emitted from a
worker bypasses the executor's single-writer channel, interleaving
corrupt lines into the JSONL log.

Worker-reachable code is discovered from the graph: the resolved
first argument of every ``pool.submit``/``pool.map`` call site on a
``ProcessPoolExecutor`` receiver, plus every function named by a
module-level ``POOL_BOUNDARY = ("name", ...)`` tuple — the explicit
annotation for boundaries the resolver cannot see (both
``runtime/parallel.py`` and the lint engine itself carry one).
Unresolvable submissions (dynamic dispatch, partials) produce no
finding: the family under-approximates rather than guesses.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lint.engine import Finding
from repro.lint.rules.base import CorpusRule

__all__ = [
    "NonPicklableSubmissionRule",
    "WorkerGlobalMutationRule",
    "WorkerTelemetryRule",
]

#: The telemetry implementation itself (its ``emit`` method is the
#: sanctioned channel, not a violation of it).
_SANCTIONED_MODULES = frozenset({"repro.runtime.telemetry"})


class NonPicklableSubmissionRule(CorpusRule):
    """RPR701: pool submission that cannot cross the process boundary."""

    id = "RPR701"
    title = "pool submission is not a top-level function"
    family = "pool-safety"
    severity = "error"
    needs_graph = True

    def consume_graph(self, graph) -> None:
        for site in graph.pool_call_sites():
            site_node = graph.node(site.node_key)
            call = site.call
            if not call.args:
                continue
            first = call.args[0]
            if first.kind == "lambda":
                self._add(
                    site_node, call.lineno,
                    f"a lambda is submitted to pool.{site.method}(); "
                    "lambdas do not pickle — hoist it to a module-level "
                    "function",
                )
                continue
            if first.kind not in ("name", "attribute"):
                continue  # dynamic/unresolvable: not over-reported
            target = graph.resolve_argument(site.node_key, first)
            if target is None:
                continue
            if not target.summary.is_toplevel:
                shape = (
                    "a method" if target.summary.class_name else
                    "a nested function"
                )
                self._add(
                    site_node, call.lineno,
                    f"{target.label()} is submitted to pool.{site.method}() "
                    f"but is {shape}; only top-level functions pickle "
                    "across the process-pool boundary",
                )

    def _add(self, node, lineno: int, message: str) -> None:
        self._findings.append(
            Finding(
                rule=self.id,
                severity=self.severity,
                path=node.path,
                line=lineno,
                col=0,
                message=message,
                # Fingerprint on the submitting function, not the line
                # number, so baselines survive unrelated edits.
                source_line=f"pool submission in {node.label()}",
            )
        )


class _WorkerReachableRule(CorpusRule):
    """Shared machinery: walk everything reachable from worker entries."""

    needs_graph = True

    def consume_graph(self, graph) -> None:
        paths = graph.reachable_from(graph.worker_entry_keys())
        for key in sorted(paths):
            node = graph.node(key)
            if node.namespace in _SANCTIONED_MODULES:
                continue
            for lineno, message in self._violations(node):
                chain = graph.render_path(paths[key])
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=node.path,
                        line=lineno,
                        col=0,
                        message=f"{message} (worker-reachable via: {chain})",
                        source_line=chain,
                    )
                )

    def _violations(self, node) -> Iterator[Tuple[int, str]]:
        return iter(())


class WorkerGlobalMutationRule(_WorkerReachableRule):
    """RPR702: worker-reachable code mutates a module global."""

    id = "RPR702"
    title = "worker-reachable code mutates module globals"
    family = "pool-safety"
    severity = "error"

    def _violations(self, node) -> Iterator[Tuple[int, str]]:
        for name, lineno in node.summary.global_writes:
            yield lineno, (
                f"module global {name!r} is written inside pool-worker "
                "code; the write is invisible to the parent process and "
                "the other workers — thread state through arguments and "
                "return values instead"
            )


class WorkerTelemetryRule(_WorkerReachableRule):
    """RPR703: worker-reachable code emits telemetry directly."""

    id = "RPR703"
    title = "worker-reachable code emits telemetry"
    family = "pool-safety"
    severity = "error"

    def _violations(self, node) -> Iterator[Tuple[int, str]]:
        for lineno in node.summary.emit_calls:
            yield lineno, (
                "telemetry is emitted inside pool-worker code; workers "
                "must return data and let the parent's single "
                "TelemetryWriter emit it, or concurrent appends interleave "
                "in the JSONL log"
            )
