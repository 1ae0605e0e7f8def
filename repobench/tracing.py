"""Spans around the program's public entry points, for the traced run.

:func:`install` replaces a fixed list of public functions and methods
with wrappers that record a :class:`Span` per call, and returns a
handle whose ``restore()`` puts the originals back.  Nothing here runs
in an untraced run: the program's code paths stay unwrapped unless
``install`` is called.

Counts are read from the program's public result and ``cache_info``
objects at the same boundaries (before and after the wrapped call) and
accumulated in :attr:`Tracer.counts`; :func:`layer_metrics` turns one
traced pass's spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import self_times


class Span:
    """One wrapped call: name, interval, parent span and op."""

    __slots__ = ("name", "start", "end", "parent", "op", "tag")

    def __init__(self, name: str, parent: int, op: Optional[str]) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        #: Optional label an after-hook attaches (e.g. machine family).
        self.tag = ""


#: ``after(tracer, span, bound_args, result, before_state)``.
AfterHook = Callable[["Tracer", Span, inspect.BoundArguments, Any, Any], None]
BeforeHook = Callable[[inspect.BoundArguments], Any]


class Tracer:
    """Span and count recorder for one traced pass.

    Spans are kept in memory, in call order, and read once the pass has
    ended.  ``op`` is the id of the op in progress; the workload sets
    it before each op so every span records which op caused it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[str] = None
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        func: Callable,
        before: Optional[BeforeHook] = None,
        after: Optional[AfterHook] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack
        signature = inspect.signature(func) if (before or after) else None
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            bound = None
            state = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    state = before(bound)
            index = len(spans)
            span = Span(name, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(self, span, bound, result, state)
            return result

        return traced


# ----------------------------------------------------------------------
# count hooks, read at the wrapped boundaries


def _machine_family(simulator: Any) -> str:
    return "power7" if simulator.machine.name.startswith("power7") else "i7"


def _before_run_graph(bound: inspect.BoundArguments) -> Tuple[Dict, Dict]:
    simulator = bound.arguments["self"]
    return (
        simulator.rate_calculator.cache_info(),
        simulator.machine.memory.equilibrium_cache_info(),
    )


def _after_run_graph(tracer, span, bound, result, state) -> None:
    simulator = bound.arguments["self"]
    policy = bound.arguments["policy"]
    snap_before, eq_before = state
    snap = simulator.rate_calculator.cache_info()
    eq = simulator.machine.memory.equilibrium_cache_info()
    counts = tracer.counts
    span.tag = _machine_family(simulator)
    counts["sim.tasks"] += result.task_count
    counts[f"sim.tasks.{span.tag}"] += result.task_count
    counts["sim.mtl_changes"] += len(result.mtl_changes)
    counts["sim.snapshot_hits"] += snap["hits"] - snap_before["hits"]
    counts["sim.snapshot_misses"] += snap["misses"] - snap_before["misses"]
    for key in ("hits", "misses", "warm_hits", "cold_solves"):
        counts[f"memory.eq_{key}"] += eq[key] - eq_before[key]
    selections = getattr(policy, "selections", None)
    if selections is not None:
        counts["core.selections"] += len(selections)
        counts["core.adaptive_tasks"] += result.task_count
        counts["core.probe_weighted"] += (
            result.probe_task_time_fraction() * result.task_count
        )


def _after_detailed_run(tracer, span, bound, result, state) -> None:
    program = bound.arguments["program"]
    tracer.counts["memory.dram_requests"] += sum(
        pair.memory.memory_requests for phase in program.phases for pair in phase.pairs
    )


def _after_calibrate(tracer, span, bound, result, state) -> None:
    tracer.counts["memory.dram_requests"] += (
        sum(result.concurrencies) * bound.arguments["requests_per_stream"]
    )


def _after_to_task_graph(tracer, span, bound, result, state) -> None:
    tracer.counts["stream.tasks_built"] += len(result)


def _after_cache_get(tracer, span, bound, result, state) -> None:
    tracer.counts["runtime.cache_misses" if result is None else "runtime.cache_hits"] += 1


def _after_lint_run(tracer, span, bound, result, state) -> None:
    counts = tracer.counts
    counts["lint.findings"] += len(result.findings)
    if span.op == "src-cold":
        counts["lint.files"] += result.files_scanned
    elif span.op == "src-warm":
        counts["lint.cache_hits"] += result.cache_hits


# ----------------------------------------------------------------------
# installation


def _targets() -> List[Tuple[Any, str, str, Optional[BeforeHook], Optional[AfterHook]]]:
    """``(owner, attribute, span name, before, after)`` per wrapped entry
    point.  An owner that is a module means "this function, wherever a
    ``repro`` module has imported it"."""
    from repro.core import DynamicThrottlingPolicy, OnlineExhaustivePolicy
    from repro.lint import LintEngine
    from repro.runtime import ResultCache, SweepExecutor
    from repro.sim import DetailedSimulator, Simulator
    from repro.stream import StreamProgram

    # import_module, not ``from package import name``: a package may
    # re-export a function under its submodule's name (``workloads.sift``).
    module = importlib.import_module
    parallel = module("repro.runtime.parallel")
    measurement = module("repro.runtime.measurement")
    registry = module("repro.workloads.registry")
    sift = module("repro.workloads.sift")
    program = module("repro.stream.program")
    calibration = module("repro.memory.calibration")
    offline = module("repro.core.offline")

    return [
        (parallel, "build_workload_from_spec", "workloads.build_workload_from_spec", None, None),
        (registry, "build_workload", "workloads.build_workload", None, None),
        (sift, "sift", "workloads.sift", None, None),
        (program, "build_phase", "workloads.build_phase", None, None),
        (StreamProgram, "to_task_graph", "stream.to_task_graph", None, _after_to_task_graph),
        (Simulator, "run_graph", "sim.run_graph", _before_run_graph, _after_run_graph),
        (DetailedSimulator, "run", "sim.detailed_run", None, _after_detailed_run),
        (calibration, "calibrate_linear_model", "memory.calibrate", None, _after_calibrate),
        (DynamicThrottlingPolicy, "on_task_complete", "core.on_task_complete", None, None),
        (OnlineExhaustivePolicy, "on_task_complete", "core.on_task_complete", None, None),
        (offline, "offline_exhaustive_search", "core.offline_search", None, None),
        (parallel, "run_point", "runtime.run_point", None, None),
        (SweepExecutor, "run", "runtime.executor_run", None, None),
        (ResultCache, "get", "runtime.cache_get", None, _after_cache_get),
        (ResultCache, "put", "runtime.cache_put", None, None),
        (measurement, "measure_makespan", "runtime.measure_makespan", None, None),
        (LintEngine, "run", "lint.run", None, _after_lint_run),
    ]


class Installation:
    """Handle on installed wrappers; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every target so its calls record spans into ``tracer``."""
    installation = Installation()
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for owner, attribute, name, before, after in _targets():
        original = vars(owner)[attribute]
        wrapper = tracer.wrap(name, original, before, after)
        if inspect.ismodule(owner):
            # ``from x import f`` copies the binding: replace every copy.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        installation.replace(module, key, wrapper)
        else:
            installation.replace(owner, attribute, wrapper)
    return installation


# ----------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, families: Sequence[str]) -> Dict[str, float]:
    """Per-layer metrics from one traced pass's spans and counts.

    ``families`` are the lint rule families whose lone runs (ops
    ``family/<name>``) give ``lint.family.<name>_s``.

    ``*_s`` metrics marked self in the benchmark's description subtract
    the time child spans cover; the others count the outermost span of
    their layer, so nested calls of one layer are not counted twice.
    """
    spans = tracer.spans
    own = self_times(
        [s.start for s in spans], [s.end for s in spans], [s.parent for s in spans]
    )

    def outermost(prefix: str) -> List[Span]:
        found = []
        for span in spans:
            if not span.name.startswith(prefix):
                continue
            parent = span.parent
            while parent >= 0 and not spans[parent].name.startswith(prefix):
                parent = spans[parent].parent
            if parent < 0:
                found.append(span)
        return found

    def covered(prefix: str) -> float:
        return sum(s.end - s.start for s in outermost(prefix))

    def self_sum(name: str, tag: Optional[str] = None) -> float:
        return sum(
            own[i]
            for i, s in enumerate(spans)
            if s.name == name and (tag is None or s.tag == tag)
        )

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def op_time(op: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == "lint.run" and s.op == op)

    c = tracer.counts
    run_s = self_sum("sim.run_graph")
    detailed_s = self_sum("sim.detailed_run")
    calibration_s = covered("memory.calibrate")
    return {
        "workloads.build_s": covered("workloads."),
        "workloads.programs": len(outermost("workloads.")),
        "stream.graph_s": covered("stream."),
        "stream.graphs": count("stream.to_task_graph"),
        "stream.tasks_built": c["stream.tasks_built"],
        "sim.run_s": run_s,
        "sim.runs": count("sim.run_graph"),
        "sim.tasks": c["sim.tasks"],
        "sim.mtl_changes": c["sim.mtl_changes"],
        "sim.us_per_task": 1e6 * _ratio(run_s, c["sim.tasks"]),
        "sim.us_per_task.i7": 1e6
        * _ratio(self_sum("sim.run_graph", "i7"), c["sim.tasks.i7"]),
        "sim.us_per_task.power7": 1e6
        * _ratio(self_sum("sim.run_graph", "power7"), c["sim.tasks.power7"]),
        "sim.snapshot_hits": c["sim.snapshot_hits"],
        "sim.snapshot_misses": c["sim.snapshot_misses"],
        "sim.snapshot_hit_ratio": _ratio(
            c["sim.snapshot_hits"], c["sim.snapshot_hits"] + c["sim.snapshot_misses"]
        ),
        "memory.eq_hits": c["memory.eq_hits"],
        "memory.eq_misses": c["memory.eq_misses"],
        "memory.eq_warm_hits": c["memory.eq_warm_hits"],
        "memory.eq_cold_solves": c["memory.eq_cold_solves"],
        "memory.eq_warm_ratio": _ratio(c["memory.eq_warm_hits"], c["memory.eq_misses"]),
        "sim.detailed_s": detailed_s,
        "sim.detailed_runs": count("sim.detailed_run"),
        "memory.dram_requests": c["memory.dram_requests"],
        "memory.dram_ns_per_request": 1e9
        * _ratio(detailed_s + calibration_s, c["memory.dram_requests"]),
        "memory.calibration_s": calibration_s,
        "core.hook_s": self_sum("core.on_task_complete"),
        "core.hook_calls": count("core.on_task_complete"),
        "core.selections": c["core.selections"],
        "core.probe_fraction": _ratio(
            c["core.probe_weighted"], c["core.adaptive_tasks"]
        ),
        "core.offline_s": covered("core.offline_search"),
        "runtime.point_s": covered("runtime.run_point"),
        "runtime.executor_self_s": self_sum("runtime.executor_run"),
        "runtime.cache_put_s": covered("runtime.cache_put"),
        "runtime.cache_get_s": covered("runtime.cache_get"),
        "runtime.cache_hits": c["runtime.cache_hits"],
        "runtime.cache_misses": c["runtime.cache_misses"],
        "runtime.measure_self_s": self_sum("runtime.measure_makespan"),
        "lint.cold_s": op_time("src-cold"),
        "lint.warm_s": op_time("src-warm"),
        "lint.files": c["lint.files"],
        "lint.cache_hits": c["lint.cache_hits"],
        "lint.findings": c["lint.findings"],
        **{f"lint.family.{family}_s": op_time(f"family/{family}") for family in families},
    }
