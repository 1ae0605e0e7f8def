"""Performance microbenchmarks for the simulation engine.

``python -m repro perfbench`` measures four layers and writes
``BENCH_sim.json`` at the repository root (see ``docs/performance.md``
for how to read it):

* **equilibrium** — solves/sec of :func:`effective_concurrency` on a
  pure memory population, three ways: the damped iteration
  (``fast_path=False``, byte-for-byte the seed algorithm), the pure
  closed-form fast path, and the memoized
  :class:`~repro.memory.equilibrium.EquilibriumSolver` hit path the
  engine actually rides.  The iterative numbers double as the honest
  "before", since that code path is unchanged.  The headline
  ``mixed_solves_per_sec`` drives a *stream* of distinct mixed
  populations (different full memo keys, shared canonical projection)
  through fresh solvers — the access pattern a simulated run produces
  as pure-CPU tasks come and go around a stable memory population —
  so it measures the warm-started solver path end to end: one cold
  damped iteration amortized over its warm-started siblings.
* **engine** — end-to-end simulated events/sec of one Figure 13 point
  (offline search, four static-MTL runs), plus the snapshot/equilibrium
  cache hit rates of a direct simulator run (emitted as
  ``snapshot_cache`` / ``equilibrium_warm`` telemetry when
  ``--telemetry`` is given).
* **fig13** — wall-clock of the Figure 13 synthetic sweep at
  ``jobs=1`` (``--quick`` runs a 16-ratio subset; per-point wall makes
  the two comparable).
* **fig14** — wall-clock of one Figure 14 point (``dft`` under the
  dynamic policy).

Every section repeats its unit of work and reports the **median** rep
(robust to one slow rep on a noisy shared machine, where a mean is
not), persisting the full rep spread — ``{median, min, max}`` per
metric — under the section's ``"spread"`` key.

Numbers for the seed engine live in ``benchmarks/perf/baseline.json``
(``"seed"`` block); the report derives before/after speedups from it.
``--check`` compares measured engine events/sec against the baseline's
``"current"`` block and fails on a >30 % regression, and additionally
enforces every entry of the baseline's ``"floors"`` block (seed-anchored
hard minimums for the schema-2 headline metrics) — the CI tripwire
that protects the optimization.  ``--profile`` wraps the engine
benchmark in :mod:`cProfile` and reports the top functions by
cumulative time (also as ``profile`` telemetry events).
"""

from __future__ import annotations

import cProfile
import gc
import json
import pathlib
import pstats
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import MeasurementError
from repro.memory.equilibrium import (
    EquilibriumSolver,
    MemoryDemand,
    demand_signature,
    effective_concurrency,
)
from repro.runtime.parallel import (
    SweepExecutor,
    SweepPoint,
    build_workload_from_spec,
    run_point,
)
from repro.runtime.telemetry import (
    TelemetryWriter,
    equilibrium_warm_event,
    profile_event,
    snapshot_cache_event,
)
from repro.sim.machine import i7_860
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.units import mebibytes

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_OUTPUT_PATH",
    "run_perfbench",
    "check_against_baseline",
    "format_report",
]

BENCH_SCHEMA_VERSION = 2

DEFAULT_OUTPUT_PATH = "BENCH_sim.json"
DEFAULT_BASELINE_PATH = "benchmarks/perf/baseline.json"

#: Allowed events/sec regression before ``--check`` fails (the CI gate).
REGRESSION_TOLERANCE = 0.30

#: Where each checkable ``floors`` metric lives in the report:
#: ``floors`` key -> (section, metric).
_FLOOR_METRICS: Dict[str, Tuple[str, str]] = {
    "engine_events_per_sec": ("engine", "events_per_sec"),
    "equilibrium_mixed_solves_per_sec": ("equilibrium", "mixed_solves_per_sec"),
    "warm_start_hit_rate": ("equilibrium", "warm_start_hit_rate"),
}

#: The fig13 grid (mirrors benchmarks/test_fig13_synthetic_sweep.py).
_FIG13_RATIOS = [round(0.05 * i, 2) for i in range(1, 81)]
_FIG13_PAIRS = 96
_FIG13_FOOTPRINT_MB = 0.5
_I7_LLC = {"capacity_bytes": mebibytes(8), "sharers": 4}

#: Pure population size for the equilibrium microbenchmark.  Large
#: enough (64 contexts — two POWER7 sockets of 8 cores x 4 SMT) that
#: the iterative path's per-solve cost is dominated by real work, not
#: loop setup.
_EQ_POPULATION = 64

#: Distinct populations per warm-start stream (one cold solve
#: amortized over ``_EQ_STREAM - 1`` warm-started siblings).
_EQ_STREAM = 32


def _fig13_point(ratio: float) -> SweepPoint:
    return SweepPoint(
        workload={
            "kind": "synthetic",
            "ratio": ratio,
            "footprint_bytes": mebibytes(_FIG13_FOOTPRINT_MB),
            "pairs": _FIG13_PAIRS,
            "llc": _I7_LLC,
        },
        policy={"kind": "offline"},
        label=f"perfbench/fig13/r={ratio:.2f}",
    )


def _rep_seconds(fn: Callable[[], Any], reps: int) -> List[float]:
    """Wall-clock seconds of each of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _spread(values: List[float]) -> Dict[str, float]:
    """``{median, min, max}`` of one per-rep metric across reps."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def _rate_reps(fn: Callable[[], Any], inner: int, outer: int) -> List[float]:
    """Per-rep rates (calls/sec) for ``outer`` reps of ``inner`` calls."""

    def batch() -> None:
        for _ in range(inner):
            fn()

    return [inner / seconds for seconds in _rep_seconds(batch, outer)]


def _bench_equilibrium(quick: bool) -> Dict[str, Any]:
    """Solves/sec of the equilibrium paths on fixed populations."""
    machine = i7_860()
    latency_fn = machine.memory.request_latency
    pure = [MemoryDemand(0.0, 1.0) for _ in range(_EQ_POPULATION)]
    mixed = [
        MemoryDemand(0.0 if i % 2 else 1e-3, 0.5 + 0.01 * i)
        for i in range(_EQ_POPULATION)
    ]
    outer = 4 if quick else 10
    inner = 500 if quick else 2_000
    mixed_inner = 125 if quick else 200

    iterative = _rate_reps(
        lambda: effective_concurrency(pure, latency_fn, fast_path=False),
        inner,
        outer,
    )
    fast = _rate_reps(
        lambda: effective_concurrency(pure, latency_fn), inner, outer
    )

    solver = EquilibriumSolver(latency_fn)
    key = demand_signature(pure)
    solver.solve(pure, key=key)  # warm the memo: measure the hit path
    memoized = _rate_reps(lambda: solver.solve(pure, key=key), inner, outer)

    mixed_iterative = _rate_reps(
        lambda: effective_concurrency(mixed, latency_fn, fast_path=False),
        mixed_inner,
        outer,
    )
    mixed_key = demand_signature(mixed)
    solver.solve(mixed, key=mixed_key)
    mixed_memoized = _rate_reps(
        lambda: solver.solve(mixed, key=mixed_key), mixed_inner, outer
    )

    # The warm-start stream: _EQ_STREAM distinct full keys sharing one
    # canonical (memory-demand) projection.  Half the population is a
    # fixed mixed memory sub-population; the other half is pure-CPU
    # demand whose magnitude varies per stream member, so every member
    # misses the full-key memo but (after the first) warm-hits the
    # canonical one.  Fresh solver per pass — stream members must stay
    # memo misses, or the benchmark degrades into the hit path.
    memory_half = [
        MemoryDemand(1e-3 if i % 2 else 0.0, 0.5 + 0.01 * i)
        for i in range(_EQ_POPULATION // 2)
    ]
    stream: List[Tuple[bytes, List[MemoryDemand]]] = []
    for member in range(_EQ_STREAM):
        cpu_half = [
            MemoryDemand(1e-3 + 1e-6 * (member * 37 + i), 0.0)
            for i in range(_EQ_POPULATION // 2)
        ]
        population = [
            demand
            for pair in zip(memory_half, cpu_half)
            for demand in pair
        ]
        stream.append((demand_signature(population), population))

    stream_passes = 10 if quick else 40
    warm_info: Dict[str, int] = {}

    def run_stream() -> None:
        for _ in range(stream_passes):
            fresh = EquilibriumSolver(latency_fn)
            for signature, population in stream:
                fresh.solve(population, key=signature)
            warm_info.update(fresh.cache_info())

    solves_per_rep = stream_passes * _EQ_STREAM
    mixed_stream = [
        solves_per_rep / seconds
        for seconds in _rep_seconds(run_stream, outer)
    ]
    solves = warm_info["warm_hits"] + warm_info["cold_solves"]
    hit_rate = warm_info["warm_hits"] / solves if solves else 0.0

    rates = {
        "pure_iterative_solves_per_sec": iterative,
        "pure_fast_path_solves_per_sec": fast,
        "pure_memoized_solves_per_sec": memoized,
        "mixed_iterative_solves_per_sec": mixed_iterative,
        "mixed_memoized_solves_per_sec": mixed_memoized,
        "mixed_solves_per_sec": mixed_stream,
    }
    report: Dict[str, Any] = {
        "population": _EQ_POPULATION,
        "stream_length": _EQ_STREAM,
    }
    for name, values in rates.items():
        report[name] = statistics.median(values)
    report["pure_fast_path_speedup"] = (
        report["pure_fast_path_solves_per_sec"]
        / report["pure_iterative_solves_per_sec"]
    )
    report["pure_memoized_speedup"] = (
        report["pure_memoized_solves_per_sec"]
        / report["pure_iterative_solves_per_sec"]
    )
    report["mixed_memoized_speedup"] = (
        report["mixed_memoized_solves_per_sec"]
        / report["mixed_iterative_solves_per_sec"]
    )
    report["mixed_stream_speedup"] = (
        report["mixed_solves_per_sec"]
        / report["mixed_iterative_solves_per_sec"]
    )
    report["warm_start_hit_rate"] = hit_rate
    report["warm_cache"] = dict(warm_info)
    report["spread"] = {name: _spread(values) for name, values in rates.items()}
    return report


def _bench_engine(quick: bool) -> Dict[str, Any]:
    """End-to-end events/sec of one fig13 point, plus cache hit rates."""
    point = _fig13_point(1.0)
    reps = 5 if quick else 20
    events_per_rep = run_point(point).sim_events  # deterministic per point
    rep_walls = _rep_seconds(lambda: run_point(point), reps)
    rep_rates = [events_per_rep / wall for wall in rep_walls]

    # Direct run of the same workload for cache-effectiveness stats
    # (run_point hides its simulator, so instrument one explicitly).
    machine = i7_860()
    program = build_workload_from_spec(dict(point.workload))
    simulator = Simulator(machine)
    for mtl in range(1, machine.context_count + 1):
        simulator.run(program, FixedMtlPolicy(mtl))
    snapshot_stats = simulator.rate_calculator.cache_info()
    eq_stats = machine.memory.equilibrium_cache_info()

    return {
        "reps": reps,
        "wall_seconds": sum(rep_walls),
        "events": events_per_rep * reps,
        "events_per_rep": events_per_rep,
        "events_per_sec": statistics.median(rep_rates),
        "spread": {
            "events_per_sec": _spread(rep_rates),
            "rep_wall_seconds": _spread(rep_walls),
        },
        "snapshot_cache": snapshot_stats,
        "equilibrium_cache": eq_stats,
    }


def _bench_fig13(quick: bool) -> Dict[str, Any]:
    """Wall-clock of the fig13 sweep at jobs=1 (quick: 16-ratio subset)."""
    ratios = _FIG13_RATIOS[4::5] if quick else _FIG13_RATIOS
    points = [_fig13_point(ratio) for ratio in ratios]
    reps = 3
    events = 0

    def sweep() -> None:
        nonlocal events
        executor = SweepExecutor(jobs=1)
        events = sum(result.sim_events for result in executor.run(points))

    rep_walls = _rep_seconds(sweep, reps)
    wall = statistics.median(rep_walls)
    return {
        "points": len(points),
        "pairs": _FIG13_PAIRS,
        "footprint_mb": _FIG13_FOOTPRINT_MB,
        "reps": reps,
        "wall_seconds": wall,
        "wall_seconds_per_point": wall / len(points),
        "events": events,
        "events_per_sec": events / wall,
        "spread": {"wall_seconds": _spread(rep_walls)},
    }


def _bench_fig14(quick: bool) -> Dict[str, Any]:
    """Wall-clock of one fig14 point: dft under the dynamic policy."""
    point = SweepPoint(
        workload={"kind": "registry", "name": "dft"},
        policy={"kind": "dynamic"},
        label="perfbench/fig14/dft-dynamic",
    )
    reps = 10 if quick else 50
    events = run_point(point).sim_events
    rep_walls = _rep_seconds(lambda: run_point(point), reps)
    return {
        "reps": reps,
        "wall_seconds_per_point": statistics.median(rep_walls),
        "events": events,
        "spread": {"wall_seconds_per_point": _spread(rep_walls)},
    }


def _profile_engine(quick: bool, top_n: int = 10) -> List[Dict[str, Any]]:
    """cProfile the engine benchmark; top ``top_n`` by cumulative time."""
    profiler = cProfile.Profile()
    profiler.enable()
    _bench_engine(quick)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, Any]] = []
    for rank, func in enumerate(stats.fcn_list[:top_n], start=1):
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        location = pathlib.Path(filename).name if filename != "~" else "~"
        rows.append(
            {
                "rank": rank,
                "function": f"{location}:{line}({name})",
                "calls": nc,
                "cumulative_seconds": ct,
                "total_seconds": tt,
            }
        )
    return rows


def _load_baseline(path: Optional[str]) -> Optional[Dict[str, Any]]:
    if path is None:
        return None
    baseline_path = pathlib.Path(path)
    if not baseline_path.exists():
        return None
    try:
        payload = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        raise MeasurementError(
            f"perf baseline {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise MeasurementError(f"perf baseline {path} must be a JSON object")
    return payload


def _speedups(
    report: Dict[str, Any], baseline: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Before/after ratios against the baseline's seed measurements."""
    speedups: Dict[str, Any] = {
        # Same-run, same-hardware ratios: memo hit / warm-started
        # stream vs the unchanged iterative algorithm.
        "equilibrium_pure_memoized_vs_iterative": report["equilibrium"][
            "pure_memoized_speedup"
        ],
        "equilibrium_mixed_stream_vs_iterative": report["equilibrium"][
            "mixed_stream_speedup"
        ],
    }
    seed = (baseline or {}).get("seed")
    if isinstance(seed, dict):
        per_point = seed.get("fig13_wall_seconds_per_point")
        if per_point:
            speedups["fig13_wall_vs_seed"] = (
                per_point / report["fig13"]["wall_seconds_per_point"]
            )
        seed_eps = seed.get("engine_events_per_sec")
        if seed_eps:
            speedups["engine_events_per_sec_vs_seed"] = (
                report["engine"]["events_per_sec"] / seed_eps
            )
        seed_mixed = seed.get("equilibrium_mixed_solves_per_sec")
        if seed_mixed:
            speedups["equilibrium_mixed_vs_seed"] = (
                report["equilibrium"]["mixed_solves_per_sec"] / seed_mixed
            )
        seed_fig14 = seed.get("fig14_point_wall_seconds")
        if seed_fig14:
            speedups["fig14_point_vs_seed"] = (
                seed_fig14 / report["fig14"]["wall_seconds_per_point"]
            )
    return speedups


def check_against_baseline(
    report: Dict[str, Any], baseline: Optional[Dict[str, Any]]
) -> List[str]:
    """Regression check for CI; returns failure messages (empty = pass).

    Compares measured engine events/sec against the baseline's
    ``current`` block with :data:`REGRESSION_TOLERANCE` headroom, then
    enforces every entry of the baseline's optional ``floors`` block
    as a hard minimum (no extra tolerance — floors are already set
    conservatively; see :data:`_FLOOR_METRICS` for where each metric
    is read from the report).  Schema-1 baselines have no ``floors``
    block and get exactly the old behaviour.
    """
    if baseline is None:
        return ["no baseline file found; cannot check for regressions"]
    current = baseline.get("current")
    if not isinstance(current, dict) or not current.get("engine_events_per_sec"):
        return ["baseline has no current.engine_events_per_sec to check against"]
    failures: List[str] = []
    floor = (1.0 - REGRESSION_TOLERANCE) * float(
        current["engine_events_per_sec"]
    )
    measured = report["engine"]["events_per_sec"]
    if measured < floor:
        failures.append(
            f"engine events/sec regressed: measured {measured:.0f} < "
            f"{floor:.0f} (70% of baseline "
            f"{float(current['engine_events_per_sec']):.0f})"
        )
    floors = baseline.get("floors")
    if isinstance(floors, dict):
        for name in sorted(floors):
            location = _FLOOR_METRICS.get(name)
            if location is None:
                failures.append(
                    f"baseline floors name unknown metric {name!r}; "
                    "checkable: " + ", ".join(sorted(_FLOOR_METRICS))
                )
                continue
            section, metric = location
            value = report[section][metric]
            minimum = float(floors[name])
            if value < minimum:
                failures.append(
                    f"{name} below floor: measured {value:.4g} < "
                    f"floor {minimum:.4g}"
                )
    return failures


def run_perfbench(
    quick: bool = False,
    profile: bool = False,
    baseline_path: Optional[str] = DEFAULT_BASELINE_PATH,
    telemetry: Optional[TelemetryWriter] = None,
) -> Dict[str, Any]:
    """Run every benchmark section and assemble the report dict."""
    baseline = _load_baseline(baseline_path)
    report: Dict[str, Any] = {"schema": BENCH_SCHEMA_VERSION, "quick": quick}
    # Collect between sections so one section's garbage does not tax the
    # next one's measurement (gen-2 scans walk everything still alive).
    for name, bench in (
        ("fig13", _bench_fig13),
        ("fig14", _bench_fig14),
        ("engine", _bench_engine),
        ("equilibrium", _bench_equilibrium),
    ):
        gc.collect()
        report[name] = bench(quick)
    if profile:
        report["profile"] = _profile_engine(quick)
    if baseline is not None:
        report["baseline"] = baseline
    report["speedups"] = _speedups(report, baseline)

    if telemetry is not None:
        engine = report["engine"]
        for cache_name, stats in (
            ("rate_snapshot", engine["snapshot_cache"]),
            ("equilibrium", engine["equilibrium_cache"]),
        ):
            telemetry.emit(
                snapshot_cache_event(
                    cache=cache_name,
                    label="perfbench/engine",
                    hits=stats["hits"],
                    misses=stats["misses"],
                    entries=stats["entries"],
                )
            )
        for label, warm in (
            ("perfbench/engine", engine["equilibrium_cache"]),
            ("perfbench/equilibrium", report["equilibrium"]["warm_cache"]),
        ):
            telemetry.emit(
                equilibrium_warm_event(
                    label=label,
                    warm_hits=warm["warm_hits"],
                    cold_solves=warm["cold_solves"],
                    iterations_saved=warm["iterations_saved"],
                    warm_entries=warm["warm_entries"],
                )
            )
        for row in report.get("profile", []):
            telemetry.emit(
                profile_event(
                    label="perfbench/engine",
                    function=row["function"],
                    rank=row["rank"],
                    calls=row["calls"],
                    cumulative_seconds=row["cumulative_seconds"],
                    total_seconds=row["total_seconds"],
                )
            )
    return report


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a perfbench report."""
    eq = report["equilibrium"]
    engine = report["engine"]
    fig13 = report["fig13"]
    fig14 = report["fig14"]
    lines = [
        f"perfbench ({'quick' if report['quick'] else 'full'} mode, "
        "median of reps)",
        "",
        f"equilibrium (population of {eq['population']}):",
        f"  iterative    {eq['pure_iterative_solves_per_sec']:>12,.0f} solves/s",
        f"  fast path    {eq['pure_fast_path_solves_per_sec']:>12,.0f} solves/s"
        f"  ({eq['pure_fast_path_speedup']:.1f}x)",
        f"  memoized     {eq['pure_memoized_solves_per_sec']:>12,.0f} solves/s"
        f"  ({eq['pure_memoized_speedup']:.1f}x)",
        f"  mixed cold   {eq['mixed_iterative_solves_per_sec']:>12,.0f} solves/s",
        f"  mixed stream {eq['mixed_solves_per_sec']:>12,.0f} solves/s"
        f"  ({eq['mixed_stream_speedup']:.1f}x, "
        f"warm hit rate {eq['warm_start_hit_rate']:.0%})",
        "",
        f"engine: {engine['events_per_sec']:,.0f} events/s "
        f"(median of {engine['reps']} reps, "
        f"{engine['events_per_rep']} events/rep)",
        f"  snapshot cache: {engine['snapshot_cache']['hits']} hits / "
        f"{engine['snapshot_cache']['misses']} misses",
        f"  equilibrium cache: {engine['equilibrium_cache']['hits']} hits / "
        f"{engine['equilibrium_cache']['misses']} misses "
        f"({engine['equilibrium_cache']['warm_hits']} warm-started)",
        "",
        f"fig13 sweep (jobs=1, {fig13['points']} points): "
        f"{fig13['wall_seconds']:.3f}s "
        f"({1000 * fig13['wall_seconds_per_point']:.2f} ms/point)",
        f"fig14 point (dft, dynamic): "
        f"{1000 * fig14['wall_seconds_per_point']:.2f} ms",
    ]
    speedups = report.get("speedups", {})
    shown = {
        "fig13_wall_vs_seed": "fig13 wall vs seed",
        "engine_events_per_sec_vs_seed": "engine events/s vs seed",
        "equilibrium_mixed_vs_seed": "equilibrium mixed stream vs seed",
        "fig14_point_vs_seed": "fig14 point vs seed",
        "equilibrium_pure_memoized_vs_iterative": "equilibrium memo vs iterative",
    }
    if speedups:
        lines.append("")
        lines.append("speedups:")
        for key, title in shown.items():
            if key in speedups:
                lines.append(f"  {title}: {speedups[key]:.2f}x")
    for row in report.get("profile", []):
        if row["rank"] == 1:
            lines.append("")
            lines.append("profile (top by cumulative time):")
        lines.append(
            f"  #{row['rank']:<2} {row['cumulative_seconds']:.3f}s "
            f"{row['function']} ({row['calls']} calls)"
        )
    return "\n".join(lines)
