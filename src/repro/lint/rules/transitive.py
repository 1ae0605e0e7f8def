"""Determinism rules (RPR102, RPR601–RPR604).

The simulator layers (``sim``, ``memory``, ``stream``, ``core``) must
be pure functions of their inputs: the chaos-parity CI job diffs a
fault-injected parallel sweep against the fault-free serial run
byte-for-byte, and the memoization property tests assert cached ==
cold float-for-float.  Any wall-clock read, OS-entropy draw,
environment read, or ``PYTHONHASHSEED``-dependent ``hash()`` those
layers can execute is a latent parity break.

RPR601–RPR604 make every function of a deterministic layer a
reachability root and flag any sink the project call graph can walk
to from there, anchored at the sink with the full call path printed.
A sink inside a deterministic-layer file is the zero-hop case (its
path is the one function holding it, module-level code included); a
helper one hop away — a root-level utility, a shared formatter — is
caught the same way.  Wall-clock time is legitimate in ``runtime``
(it measures real executions) as long as no model function reaches it.

RPR102 is the one determinism rule that is not about reachability:
randomness without an explicit seed breaks replay wherever it runs,
tests included, so it flags every such call site in every layer.

All five read the facts the summary pass already extracts
(``calls[].canonical``/``has_args``, ``env_reads``, ``hash_calls``), so
none of them walks an AST of its own.  Findings carry a stable
``source_line`` (the rendered call path, or the call and its function)
so baselines survive unrelated line shifts.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from repro.lint.engine import Finding
from repro.lint.rules.base import CorpusRule

__all__ = [
    "DETERMINISTIC_LAYERS",
    "UnseededRandomRule",
    "TransitiveWallClockRule",
    "TransitiveEntropyRule",
    "TransitiveEnvironmentRule",
    "TransitiveHashRule",
]

#: Layers whose outputs must be bit-reproducible.
DETERMINISTIC_LAYERS = frozenset({"sim", "memory", "stream", "core"})

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: OS-entropy sources (disjoint from RPR102's global-RNG tables).
_OS_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.choice",
        "secrets.randbelow",
        "secrets.randbits",
    }
)

#: ``random`` module functions that draw from the hidden global RNG.
_GLOBAL_RANDOM = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` legacy functions backed by the global state.
_GLOBAL_NP_RANDOM = frozenset(
    {
        "choice",
        "normal",
        "permutation",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)


def _unseeded(canonical: str, has_args: bool) -> Optional[str]:
    """RPR102's message for a call to ``canonical``, or ``None``."""
    module, _, attr = canonical.rpartition(".")
    if module == "random":
        if attr in _GLOBAL_RANDOM:
            return (
                f"random.{attr}() draws from the hidden global RNG; "
                "use random.Random(seed) so every run replays"
            )
        if attr == "seed" and not has_args:
            return "random.seed() with no arguments seeds from the OS"
        if attr == "Random" and not has_args:
            return "random.Random() without a seed is nondeterministic"
        if attr == "SystemRandom":
            return "random.SystemRandom is nondeterministic by design"
    if module == "numpy.random":
        if attr == "default_rng" and not has_args:
            return (
                "numpy.random.default_rng() without a seed is "
                "nondeterministic; pass an explicit seed"
            )
        if attr in _GLOBAL_NP_RANDOM:
            return (
                f"numpy.random.{attr}() uses numpy's global state; "
                "use numpy.random.default_rng(seed)"
            )
    return None


class UnseededRandomRule(CorpusRule):
    """RPR102: randomness with no explicit seed (any layer, tests too)."""

    id = "RPR102"
    title = "unseeded or global-state randomness"
    family = "determinism"
    severity = "error"

    def consume_summary(self, summary) -> None:
        for function in summary.functions:
            for call in function.calls:
                if call.canonical is None:
                    continue
                message = _unseeded(call.canonical, call.has_args)
                if message is None:
                    continue
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=summary.path,
                        line=call.lineno,
                        col=0,
                        message=message,
                        source_line=f"{call.canonical}() in {function.qualname}",
                    )
                )


class _TransitiveRule(CorpusRule):
    """Shared reachability machinery for the RPR6xx family.

    Subclasses implement :meth:`_sinks` to name the sink sites inside
    one reachable function; this base walks the graph and renders
    paths.
    """

    needs_graph = True

    def consume_graph(self, graph) -> None:
        roots = [
            node.key for node in graph.nodes_in_layers(DETERMINISTIC_LAYERS)
        ]
        paths = graph.reachable_from(roots)
        seen: Set[Tuple[str, int, str]] = set()
        for key in sorted(paths):
            node = graph.node(key)
            for line, detail in self._sinks(node):
                if (node.path, line, detail) in seen:
                    continue
                seen.add((node.path, line, detail))
                chain = graph.render_path(paths[key])
                if len(paths[key]) == 1:
                    where = f"in deterministic layer {node.layer!r} ({chain})"
                else:
                    where = f"is reachable from the deterministic layers via: {chain}"
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=node.path,
                        line=line,
                        col=0,
                        message=f"{detail} {where}",
                        source_line=chain,
                    )
                )

    def _sinks(self, node) -> Iterator[Tuple[int, str]]:
        """Yield ``(lineno, description)`` for each sink in ``node``."""
        return iter(())


class TransitiveWallClockRule(_TransitiveRule):
    """RPR601: wall-clock read reachable from a deterministic layer."""

    id = "RPR601"
    title = "wall-clock reachable from a deterministic layer"
    family = "transitive-determinism"
    severity = "error"

    def _sinks(self, node) -> Iterator[Tuple[int, str]]:
        for call in node.summary.calls:
            if call.canonical in _WALL_CLOCK:
                yield call.lineno, f"{call.canonical}()"


class TransitiveEntropyRule(_TransitiveRule):
    """RPR602: OS-entropy source reachable from a deterministic layer."""

    id = "RPR602"
    title = "OS entropy reachable from a deterministic layer"
    family = "transitive-determinism"
    severity = "error"

    def _sinks(self, node) -> Iterator[Tuple[int, str]]:
        for call in node.summary.calls:
            if call.canonical in _OS_ENTROPY:
                yield call.lineno, f"{call.canonical}()"


class TransitiveEnvironmentRule(_TransitiveRule):
    """RPR603: environment read reachable from a deterministic layer."""

    id = "RPR603"
    title = "environment read reachable from a deterministic layer"
    family = "transitive-determinism"
    severity = "error"

    def _sinks(self, node) -> Iterator[Tuple[int, str]]:
        for lineno in node.summary.env_reads:
            yield lineno, "an os.environ/os.getenv read"


class TransitiveHashRule(_TransitiveRule):
    """RPR604: built-in ``hash()`` reachable from a deterministic layer.

    ``hash(str)`` changes per process under ``PYTHONHASHSEED``
    randomisation, so any ordering or key derived from it differs
    between the serial path and pool workers.  Stable content hashes
    belong to :func:`repro.runtime.cache.stable_hash`.
    """

    id = "RPR604"
    title = "built-in hash() reachable from a deterministic layer"
    family = "transitive-determinism"
    severity = "error"

    def _sinks(self, node) -> Iterator[Tuple[int, str]]:
        for lineno in node.summary.hash_calls:
            yield lineno, "a built-in hash() call"
