"""Effect-signature rule families (RPR901–RPR907).

Three families built on the transitive
:class:`~repro.lint.effects.fixpoint.EffectAnalysis` (rules that set
``needs_effects``) or directly on the per-file
:class:`~repro.lint.effects.model.FunctionEffects` records (rules
whose invariant is local to one function body):

* **plugin-contract** (RPR901–RPR903): throttling-policy hooks are
  observers.  The contract's hook names are discovered from a
  module-level ``POLICY_HOOKS = ("setup", ...)`` tuple (the same
  annotation idiom as ``POOL_BOUNDARY``), policy classes from the
  class hierarchy under any hook-defining class in a declaring
  module.  A hook that mutates a simulator-owned argument —
  transitively, through helpers and aliases — retains a mutable
  reference, or writes module globals breaks replay: the simulator
  hands hooks live ``RunningTask``/machine state and assumes it comes
  back untouched.
* **mutation-after-freeze** (RPR904–RPR905): the memo caches are
  sound only because their keys never change once built — the
  equilibrium and rate-snapshot memos have no invalidation path.
  Protected state is every field of a ``@dataclass(frozen=True)``
  plus the memo-signature slots of a ``__slots__`` class (``_sig*``,
  ``_cohort*``, and :data:`MEMO_KEY_FIELDS`).  RPR905 flags any write
  to it outside construction and unpickling — a direct store, an
  ``object.__setattr__(self, ...)``, an in-place or aliased mutation;
  RPR904 flags an object mutated after being captured into a
  signature slot, constructors included.
* **exception-flow** (RPR906–RPR907): exceptions crossing the
  process-pool boundary must be ``repro.errors`` types (builtin
  tracebacks pickle poorly and lose run context), and deterministic
  layers may not raise bare ``Exception``/``BaseException`` (callers
  cannot catch those deliberately without catching everything).

Every transitive finding prints the witness — the alias chain and the
shortest call path that justify it — and the analysis
under-approximates (unknown callees are ``⊤``, never evidence), so
the families report only provable violations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.lint.engine import Finding
from repro.lint.rules.base import CorpusRule
from repro.lint.rules.transitive import DETERMINISTIC_LAYERS

__all__ = [
    "PolicyHookArgumentMutationRule",
    "PolicyHookReferenceRetentionRule",
    "PolicyHookGlobalWriteRule",
    "PostCaptureMutationRule",
    "SignatureInteriorMutationRule",
    "WorkerExceptionEscapeRule",
    "DeterministicBareExceptionRule",
    "MEMO_KEY_FIELDS",
]

#: Module-level tuple naming the policy plugin contract's hook methods
#: (``repro/core/plugin.py`` carries the real one; fixture corpora
#: declare their own).  The same machine-readable-annotation idiom as
#: ``POOL_BOUNDARY``.
_POLICY_HOOKS_NAME = "POLICY_HOOKS"

#: Layers whose files never host production policies.
_SKIPPED_LAYERS = frozenset({"tests", "unknown"})

#: Exception types allowed to escape a pool-worker entry besides
#: ``repro.errors`` ancestry: the abstract-hook idiom and the
#: interpreter-control exceptions the executor itself handles.
_SANCTIONED_WORKER_EXCEPTIONS = frozenset(
    {
        "NotImplementedError",
        "KeyboardInterrupt",
        "SystemExit",
        "GeneratorExit",
    }
)

#: Slot names treated as memo-signature inputs on ``__slots__``
#: classes besides ``_sig*`` and ``_cohort*``: the dispatch-cached
#: derived fields of :class:`~repro.sim.engine.RunningTask`.
MEMO_KEY_FIELDS = frozenset({"demand", "total_units"})

#: Methods allowed to write protected state: construction plus
#: unpickling (which rebuilds, never mutates live state).
_REBUILD_METHODS = frozenset(
    {"__init__", "__post_init__", "__getstate__", "__setstate__"}
)

#: Mutation kinds that overwrite a field rather than edit its object.
_DIRECT_WRITES = frozenset({"store-attr", "augstore", "setattr"})


def _protects(cls, fieldname: str) -> bool:
    """Is ``fieldname`` of class ``cls`` frozen after construction?

    Every field of a frozen dataclass (``""`` — the object itself, or
    a field an ``object.__setattr__`` names dynamically — included),
    and the memo-signature slots of a ``__slots__`` class.
    """
    if cls.frozen:
        return True
    if cls.slots is None or fieldname not in cls.slots:
        return False
    return (
        fieldname.startswith("_sig")
        or fieldname.startswith("_cohort")
        or fieldname in MEMO_KEY_FIELDS
    )


def _ancestors(
    canonical: str, hierarchy: Dict[str, Tuple[str, ...]]
) -> Set[str]:
    """Inclusive ancestor set of a canonical class name."""
    seen: Set[str] = set()
    stack = [canonical]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(hierarchy.get(current, ()))
    return seen


def _policy_surface(graph) -> Tuple[FrozenSet[str], List[Tuple[str, object]]]:
    """``(hook names, [(namespace, ClassSummary), ...])`` of the
    policy-plugin contract, or empty when no module declares one."""
    hooks: Set[str] = set()
    bases: Set[str] = set()
    modules = graph.module_summaries()
    for namespace in sorted(modules):
        summary = modules[namespace]
        declared: Set[str] = set()
        for name, values in summary.string_tuples:
            if name == _POLICY_HOOKS_NAME:
                declared.update(values)
        if not declared:
            continue
        hooks.update(declared)
        for cls in summary.classes:
            if declared.intersection(cls.methods):
                bases.add(f"{namespace}.{cls.name}")
    if not hooks or not bases:
        return frozenset(), []
    hierarchy = graph.class_hierarchy()
    policies: List[Tuple[str, object]] = []
    for namespace in sorted(modules):
        for cls in modules[namespace].classes:
            if _ancestors(f"{namespace}.{cls.name}", hierarchy) & bases:
                policies.append((namespace, cls))
    return frozenset(hooks), policies


class _PolicyContractRule(CorpusRule):
    """Shared discovery for RPR901–RPR903: walk every hook method of
    every policy class and hand it to :meth:`_check_hook`."""

    needs_graph = True
    needs_effects = True

    def __init__(self) -> None:
        super().__init__()
        self._graph = None

    def consume_graph(self, graph) -> None:
        self._graph = graph

    def consume_effects(self, analysis) -> None:
        graph = self._graph
        if graph is None:
            return
        hooks, policies = _policy_surface(graph)
        for namespace, cls in policies:
            for hook in sorted(hooks):
                key = f"{namespace}::{cls.name}.{hook}"
                node = graph.node(key)
                if node is None or node.layer in _SKIPPED_LAYERS:
                    continue
                fx = analysis.function_effects(key)
                if fx is None:
                    continue
                self._check_hook(analysis, key, node, cls, hook, fx)

    def _check_hook(self, analysis, key, node, cls, hook, fx) -> None:
        raise NotImplementedError


class PolicyHookArgumentMutationRule(_PolicyContractRule):
    """RPR901: policy hook mutates a simulator-owned argument."""

    id = "RPR901"
    title = "policy hook mutates a simulator-owned argument"
    family = "plugin-contract"
    severity = "error"

    def _check_hook(self, analysis, key, node, cls, hook, fx) -> None:
        receiver = fx.params[0] if fx.params else None
        by_param: Dict[str, Set[str]] = {}
        for param, fieldname in analysis.signature(key).mutates:
            if param != receiver:
                by_param.setdefault(param, set()).add(fieldname)
        for param in sorted(by_param):
            witness = analysis.mutation_witness(key, param)
            if witness is None:
                continue  # not locally provable: stay silent
            path_keys, site_key, mutation = witness
            fields = ", ".join(
                name or "<the object itself>"
                for name in sorted(by_param[param])
            )
            chain = mutation.chain()
            rendered = analysis.render_path(path_keys)
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=analysis.node_path(site_key) or node.path,
                    line=mutation.lineno,
                    col=0,
                    message=(
                        f"policy hook {cls.name}.{hook}() mutates its "
                        f"{param!r} argument ({fields}); hooks observe "
                        "simulator state, they never edit it — alias "
                        f"chain: {chain}; call path: {rendered}"
                    ),
                    source_line=(
                        f"{cls.name}.{hook} mutates {param} via {chain}"
                    ),
                )
            )


class PolicyHookReferenceRetentionRule(_PolicyContractRule):
    """RPR902: policy hook retains a reference to an argument."""

    id = "RPR902"
    title = "policy hook retains a mutable argument reference"
    family = "plugin-contract"
    severity = "error"

    def _check_hook(self, analysis, key, node, cls, hook, fx) -> None:
        receiver = fx.params[0] if fx.params else None
        immutable = set(fx.immutable_params)
        for param in sorted(analysis.signature(key).captures):
            if param == receiver:
                continue
            if param in immutable:
                # An ``int``/``str``-annotated argument is a value;
                # storing it retains no mutable simulator state.
                continue
            witness = analysis.capture_witness(key, param)
            if witness is None:
                continue
            path_keys, site_key, capture = witness
            chain = capture.chain()
            rendered = analysis.render_path(path_keys)
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=analysis.node_path(site_key) or node.path,
                    line=capture.lineno,
                    col=0,
                    message=(
                        f"policy hook {cls.name}.{hook}() retains a "
                        f"reference to its {param!r} argument (stored "
                        f"into {capture.dest}); a kept reference lets "
                        "the policy read or mutate simulator state after "
                        "the hook returned — copy the values you need "
                        f"instead — alias chain: {chain}; call path: "
                        f"{rendered}"
                    ),
                    source_line=(
                        f"{cls.name}.{hook} retains {param} in "
                        f"{capture.dest} via {chain}"
                    ),
                )
            )


class PolicyHookGlobalWriteRule(_PolicyContractRule):
    """RPR903: policy hook writes module globals."""

    id = "RPR903"
    title = "policy hook writes module globals"
    family = "plugin-contract"
    severity = "error"

    def _check_hook(self, analysis, key, node, cls, hook, fx) -> None:
        writes = analysis.signature(key).global_writes
        if not writes:
            return
        witness = analysis.global_write_witness(key)
        if witness is None:
            return
        path_keys, site_key, name, lineno = witness
        names = ", ".join(repr(w) for w in sorted(writes))
        rendered = analysis.render_path(path_keys)
        self._findings.append(
            Finding(
                rule=self.id,
                severity=self.severity,
                path=analysis.node_path(site_key) or node.path,
                line=lineno,
                col=0,
                message=(
                    f"policy hook {cls.name}.{hook}() writes module "
                    f"global(s) {names}; policy state belongs on the "
                    "instance (module globals survive across runs and "
                    "break replay isolation) — call path: "
                    f"{rendered}"
                ),
                source_line=(
                    f"{cls.name}.{hook} writes global {name} via "
                    f"{rendered}"
                ),
            )
        )


class _MemoEffectRule(CorpusRule):
    """Shared scoping for RPR904–RPR905: methods of classes with
    protected state, in every layer."""

    def consume_summary(self, summary) -> None:
        classes = {cls.name: cls for cls in summary.classes}
        for fx in summary.effects:
            cls = _owning_class(classes, fx)
            if cls is not None and (cls.frozen or cls.slots is not None):
                self._collect(summary, fx, cls)

    def _collect(self, summary, fx, cls) -> None:
        raise NotImplementedError


def _owning_class(classes, fx):
    """The class whose method (or closure inside one) ``fx`` is.

    A class-body method is qualified by its class (``Outer.Inner.m``),
    so the longest qualname prefix ending in the class name wins; a
    method of a function-local class is qualified by the function, so
    it falls back to the bare class name.
    """
    if fx.class_name is None:
        return None
    parts = fx.qualname.split(".")
    for end in range(len(parts) - 1, 0, -1):
        if parts[end - 1] == fx.class_name:
            cls = classes.get(".".join(parts[:end]))
            if cls is not None:
                return cls
    return classes.get(fx.class_name)


class PostCaptureMutationRule(_MemoEffectRule):
    """RPR904: object mutated after capture into a signature slot."""

    id = "RPR904"
    title = "object mutated after capture into a memo-signature slot"
    family = "mutation-after-freeze"
    severity = "error"

    def _collect(self, summary, fx, cls) -> None:
        # Applies in constructors too: capture-then-mutate is ordering
        # sensitive, and a ctor that appends after storing has already
        # handed the memo a moving target.
        for cm in fx.capture_mutations:
            if not _protects(cls, cm.attr):
                continue
            chain = cm.chain()
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=summary.path,
                    line=cm.lineno,
                    col=0,
                    message=(
                        f"self.{cm.attr} captured {cm.name!r} at line "
                        f"{cm.capture_lineno}, and the captured object is "
                        f"mutated here ({cm.kind}); the stored signature "
                        "now aliases mutable state — store a copy, or "
                        "finish building the object before capturing it — "
                        f"alias chain: {chain}"
                    ),
                    source_line=(
                        f"{fx.qualname}: {cm.kind} on {cm.name} after "
                        f"capture into self.{cm.attr} via {chain}"
                    ),
                )
            )


class SignatureInteriorMutationRule(_MemoEffectRule):
    """RPR905: protected state written after construction.

    A store, augmented store, ``del``, or ``object.__setattr__`` on a
    protected field of ``self``, or an in-place/aliased mutation of the
    object it holds, anywhere but the rebuild methods.  A deliberate
    write-once lazy memo attach can be annotated with
    ``# repro: lint-ok RPR905 -- reason``.
    """

    id = "RPR905"
    title = "frozen or memo-signature state mutated after construction"
    family = "mutation-after-freeze"
    severity = "error"

    def _collect(self, summary, fx, cls) -> None:
        method = fx.qualname.rpartition(".")[2]
        if method in _REBUILD_METHODS:
            return  # construction/unpickle legitimately build the state
        if method not in cls.methods:
            return  # a closure: its writes through the receiver count in its method
        receiver = fx.params[0] if fx.params else None
        if receiver is None:
            return
        for mutation in fx.mutations:
            if mutation.param != receiver:
                continue
            if not _protects(cls, mutation.field):
                continue
            chain = mutation.chain()
            if mutation.kind not in _DIRECT_WRITES:
                shape = f"in place ({mutation.kind})"
            elif mutation.via == (receiver,):
                shape = f"by a direct write ({mutation.kind})"
            else:
                shape = f"through an alias ({mutation.kind})"
            state = "frozen dataclass field" if cls.frozen else "memo-signature slot"
            fieldname = mutation.field or "<the object itself>"
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=summary.path,
                    line=mutation.lineno,
                    col=0,
                    message=(
                        f"{cls.name}.{fieldname} is a {state} but is "
                        f"mutated {shape} in {method}(); it may only be "
                        "written during __init__/__post_init__ or "
                        "unpickling (memo keys and cache hashes assume it "
                        f"never changes) — alias chain: {chain}"
                    ),
                    source_line=(
                        f"{fx.qualname}: {mutation.kind} on "
                        f"{cls.name}.{fieldname} via {chain}"
                    ),
                )
            )


class WorkerExceptionEscapeRule(CorpusRule):
    """RPR906: non-``repro.errors`` exception escapes a pool worker."""

    id = "RPR906"
    title = "builtin exception can escape a pool-worker entry"
    family = "exception-flow"
    severity = "error"
    needs_graph = True
    needs_effects = True

    def __init__(self) -> None:
        super().__init__()
        self._graph = None

    def consume_graph(self, graph) -> None:
        self._graph = graph

    def consume_effects(self, analysis) -> None:
        graph = self._graph
        if graph is None:
            return
        for key in graph.worker_entry_keys():
            node = graph.node(key)
            if node is None:
                continue
            signature = analysis.signature(key)
            for exc in sorted(signature.raises):
                if exc in _SANCTIONED_WORKER_EXCEPTIONS:
                    continue
                if analysis.is_repro_error(exc):
                    continue
                witness = analysis.raise_witness(key, exc)
                if witness is None:
                    continue  # not reconstructible: stay silent
                path_keys, site_key, lineno = witness
                rendered = analysis.render_path(path_keys)
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=analysis.node_path(site_key) or node.path,
                        line=lineno,
                        col=0,
                        message=(
                            f"{exc} can escape pool-worker entry "
                            f"{node.label()}(); exceptions crossing the "
                            "process-pool boundary must be repro.errors "
                            "types (builtin tracebacks lose run context "
                            "and pickle poorly) — convert at the raise "
                            f"site or catch at the boundary — raised "
                            f"via: {rendered}"
                        ),
                        source_line=(
                            f"{exc} escapes {node.label()} via {rendered}"
                        ),
                    )
                )


class DeterministicBareExceptionRule(CorpusRule):
    """RPR907: deterministic layer raises bare ``Exception``."""

    id = "RPR907"
    title = "bare Exception raised in a deterministic layer"
    family = "exception-flow"
    severity = "error"

    def consume_summary(self, summary) -> None:
        if summary.layer not in DETERMINISTIC_LAYERS:
            return
        for fx in summary.effects:
            for site in fx.raises:
                if site.kind != "explicit":
                    continue
                if site.type not in ("Exception", "BaseException"):
                    continue
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=summary.path,
                        line=site.lineno,
                        col=0,
                        message=(
                            f"bare {site.type} raised in "
                            f"{fx.qualname}(); deterministic layers "
                            "raise specific repro.errors types so "
                            "callers can catch deliberately instead of "
                            "catching everything"
                        ),
                        source_line=(
                            f"raise {site.type} in {fx.qualname}"
                        ),
                    )
                )
