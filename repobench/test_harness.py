"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest repobench/test_harness.py -q

They pin the harness's own arithmetic and checks (not the program's
speed): the tail rule, span self time, the output check, the offline
task-count derivation, the rescaling to reference speed, the
traced/untraced separation, and that ``BENCHMARK.json`` names exactly
the metrics the harness prints.
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import speed  # noqa: E402
import stats  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402

import repro.runtime as runtime  # noqa: E402
import repro.runtime.parallel as parallel  # noqa: E402
import repro.sim as sim  # noqa: E402


# ----------------------------------------------------------------------
# op_tail_ms percentile rule


def test_tail_has_exactly_ten_ops_beyond_it():
    values = [float(v) for v in range(1, 31)]  # 30 ops
    value, percentile, count = stats.tail(list(reversed(values)))
    assert value == 20.0
    assert sum(1 for v in values if v > value) == stats.TAIL_OPS_BEYOND
    assert percentile == pytest.approx(100 * 20 / 30)
    assert count == 30


def test_tail_needs_more_than_ten_ops():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)
    assert stats.tail([1.0] * 10 + [2.0]) == (1.0, pytest.approx(100 / 11), 11)


def test_passes_per_group_keeps_the_tail_at_or_above_p75():
    assert stats.passes_per_group(252) == 1
    assert stats.passes_per_group(40) == 1
    assert stats.passes_per_group(31) == 2  # 62 ops: rank 52 of 62
    assert stats.passes_per_group(20) == 2  # 40 ops: rank 30 of 40
    assert stats.passes_per_group(1) == 40


def test_grouped_tail_is_the_median_of_group_tails_and_drops_leftovers():
    group = [float(v) for v in range(1, 21)]  # 20 ops per pass, groups of 2
    doubled = [x * 2 for x in group]
    passes = [group, group, doubled, doubled, [x * 100 for x in group]]
    value, percentile, count = stats.grouped_tail(passes)
    # Groups: 2 x group (tail 15.0), 2 x doubled (tail 30.0); the
    # fifth pass is an incomplete group and left out.
    assert (value, count) == (22.5, 40)
    assert percentile == pytest.approx(75.0)


def test_per_op_median_takes_each_ops_median_before_the_median_over_ops():
    # Two clusters of cost, like request-level's rate and detailed runs:
    # op 2 is the middle op whatever the noise on the others.
    passes = [
        [0.01, 0.02, 0.25, 0.4, 0.5],
        [0.03, 0.01, 0.26, 0.3, 0.45],
        [0.02, 0.02, 0.24, 0.5, 0.4],
    ]
    assert stats.per_op_median(passes) == 0.25
    for count in (1, 2, 4):
        assert stats.per_op_median([passes[0]] * count) == 0.25
    with pytest.raises(ValueError):
        stats.per_op_median([[1.0, 2.0], [1.0]])


# ----------------------------------------------------------------------
# span self time


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def _span(tracer, name, start, end, parent=-1, op=None):
    span = tracing.Span(name, parent, op)
    span.start, span.end = start, end
    tracer.spans.append(span)
    return len(tracer.spans) - 1


def test_layer_metrics_on_a_synthetic_span_tree():
    tracer = tracing.Tracer()
    executor = _span(tracer, "runtime.executor_run", 0.0, 10.0)
    point = _span(tracer, "runtime.run_point", 1.0, 9.0, executor)
    build = _span(tracer, "workloads.build_workload_from_spec", 1.0, 3.0, point)
    _span(tracer, "workloads.build_phase", 1.5, 2.5, build)  # nested: counted once
    run = _span(tracer, "sim.run_graph", 3.0, 8.0, point)
    _span(tracer, "core.on_task_complete", 4.0, 4.5, run)
    _span(tracer, "core.on_task_complete", 5.0, 5.5, run)
    metrics = tracing.layer_metrics(tracer, suite.LintSrc.FAMILIES)
    assert metrics["workloads.build_s"] == 2.0
    assert metrics["workloads.programs"] == 1
    assert metrics["sim.run_s"] == 4.0
    assert metrics["core.hook_s"] == 1.0
    assert metrics["core.hook_calls"] == 2
    assert metrics["runtime.point_s"] == 8.0
    assert metrics["runtime.executor_self_s"] == 2.0


def test_wrapper_records_parents_and_ops():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    tracer.op = "op-1"
    assert tracer.wrap("outer", outer)() == 2
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", -1, "op-1"), ("leaf", 0, "op-1"), ("leaf", 0, "op-1")]
    assert all(s.end >= s.start for s in tracer.spans)


def test_install_wraps_every_copy_and_restore_unwraps():
    original = parallel.run_point
    offline = parallel.offline_exhaustive_search
    installation = tracing.install(tracing.Tracer())
    try:
        assert parallel.run_point is not original
        assert runtime.run_point is parallel.run_point  # the package's copy too
        assert parallel.offline_exhaustive_search is not offline
    finally:
        installation.restore()
    assert parallel.run_point is original
    assert runtime.run_point is original
    assert parallel.offline_exhaustive_search is offline


# ----------------------------------------------------------------------
# output check


def test_output_check_flags_a_perturbed_makespan():
    reference = suite.load_reference("sweep")
    ops = [suite.Op(key, 0.0, dict(output)) for key, output in reference.items()]
    assert suite.failed_ops(ops, reference) == []
    victim = ops[7]
    perturbed = dict(victim.output)
    perturbed["makespan"] = perturbed["makespan"] * (1 + 1e-12)
    victim.output = perturbed
    assert suite.failed_ops(ops, reference) == [victim.key]


def test_output_check_counts_a_failed_invariant_without_a_reference():
    ops = [suite.Op("a", 0.0, {"findings": 0}), suite.Op("b", 0.0, {}, invariant_ok=False)]
    assert suite.failed_ops(ops, None) == ["b"]


# ----------------------------------------------------------------------
# honest work counts


def test_offline_task_count_derivation_matches_the_traced_runs():
    point = runtime.SweepPoint(
        workload={"kind": "synthetic", "ratio": 0.5, "pairs": 8},
        policy={"kind": "offline"},
    )
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        result = runtime.run_point(point)
    finally:
        installation.restore()
    contexts = sim.i7_860().context_count
    assert len(result.per_mtl_makespan) == contexts
    assert suite.point_tasks(result) == result.task_count * contexts
    assert suite.point_tasks(result) == tracing.layer_metrics(tracer, suite.LintSrc.FAMILIES)["sim.tasks"]
    # The executor's own count credits the winning run only.
    assert result.sim_events < suite.point_tasks(result)


# ----------------------------------------------------------------------
# reference speed


def test_scale_is_one_at_the_reference_speed_and_inverse_to_the_probe():
    ref = speed.REFERENCE_PROBE_S
    assert speed.scale(ref, ref) == 1.0
    assert speed.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.scale(ref, 3 * ref) == pytest.approx(0.5)  # mean of both ends


def test_untraced_clock_rescales_every_interval_by_its_probes(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_PROBE_S)
    clock = suite.OpClock(None)
    clock.begin("a")
    clock.lap("b")
    clock.end()
    clock.run("replay", lambda: None, is_op=False)
    assert [op.key for op in clock.ops] == ["a", "b"]
    assert [op.key for op in clock.extra] == ["replay"]
    for op in clock.ops + clock.extra:
        assert op.reference_seconds == pytest.approx(op.seconds / 2)
    reference, host = clock.walls()
    assert host == pytest.approx(sum(op.seconds for op in clock.ops + clock.extra))
    assert reference == pytest.approx(host / 2)


def test_back_to_back_ops_share_one_probe_between_them(monkeypatch):
    probes = []

    def probe():
        probes.append(1)
        return speed.REFERENCE_PROBE_S

    monkeypatch.setattr(speed, "probe", probe)
    clock = suite.OpClock(None)
    assert clock.run_each(["a", "b", "c"], lambda index: index * 10) == [0, 10, 20]
    assert [op.key for op in clock.ops] == ["a", "b", "c"]
    assert len(probes) == 4


def test_take_returns_the_samples_inside_and_drops_those_it_passed(monkeypatch):
    samples = [(1.0, 2.0, 0.1), (3.0, 4.0, 0.2), (4.5, 5.5, 0.3), (6.0, 7.0, 0.4)]
    monkeypatch.setattr(speed, "_samples", list(samples))
    assert speed.take(2.5, 5.0) == ([0.2], 1.0)  # (4.5, 5.5) straddles the end
    assert speed._samples == samples[2:]


def test_in_op_samples_are_not_op_time():
    def spin():
        until = time.perf_counter() + 0.3
        while time.perf_counter() < until:
            pass

    clock = suite.OpClock(None)
    speed.start_sampling()
    try:
        started = time.perf_counter()
        clock.run("spin", spin)
        elapsed = time.perf_counter() - started
    finally:
        speed.stop_sampling()
    (op,) = clock.ops
    # At least four samples of at least one probe run each fell inside.
    assert op.seconds < elapsed - 4 * speed.REPEATS * 1e-5
    assert op.seconds > 0.15


def test_traced_clock_does_not_probe_and_names_the_op(monkeypatch):
    def no_probe():
        raise AssertionError("a traced pass must not probe")

    monkeypatch.setattr(speed, "probe", no_probe)
    tracer = tracing.Tracer()
    clock = suite.OpClock(tracer)
    assert clock.run("op-1", lambda: 7) == 7
    assert tracer.op == "op-1"
    (op,) = clock.ops
    assert op.reference_seconds == op.seconds


# ----------------------------------------------------------------------
# seeds


def test_seed_zero_is_the_paper_grid_and_other_seeds_stay_in_their_cells():
    sweep = suite.WORKLOADS["sweep"]
    assert sweep.inputs(0)["ratios"] == [round(0.05 * i, 2) for i in range(1, 81)]
    for index, ratio in enumerate(sweep.inputs(7)["ratios"], start=1):
        assert 0.05 * (index - 1) < ratio <= 0.05 * index + 1e-9
    assert sweep.inputs(7) == sweep.inputs(7)
    assert suite.WORKLOADS["request-level"].inputs(0)["compute_times"] == [70e-6, 30e-6, 12e-6]
    assert suite.WORKLOADS["noisy-sift"].inputs(3)["base_seed"] == 3000


# ----------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_names_exactly_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == END_TO_END_UNITS[metric["name"]]
    per_layer = set(tracing.layer_metrics(tracing.Tracer(), suite.LintSrc.FAMILIES))
    per_layer |= {"trace.wall_s", "trace.overhead_pct", "ref_error_pct"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(suite.WORKLOADS)
