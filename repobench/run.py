"""Benchmark harness: times one workload and checks its outputs.

Usage (from the repository root)::

    python3 repobench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 repobench/run.py --workload all              # every workload
    python3 repobench/run.py --workload sweep --record   # re-record seed 0

A run repeats passes of the workload (each pass the same fixed work)
for about ``--seconds`` seconds, checks every op of every pass, prints
each metric on its own line, and ends with one JSON line::

    {"correct": ..., "attempted": ops, "failed": ops, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, their times rescaled to
a reference host speed (see ``speed.py``); ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
``tracing.py``).  ``README.md`` describes every metric.
"""

import time

_STARTED = time.perf_counter()

import speed  # noqa: E402 -- the harness's own probe, no program code

_PROBE_BEGAN = time.perf_counter()
_START_PROBE = speed.probe()
_PROBED = time.perf_counter()
speed.start_sampling()

import argparse  # noqa: E402 -- imports are part of the timed set-up
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOAD_NAMES = ("sweep", "noisy-sift", "request-level", "lint-src")

#: Set-ups measured per untraced run (this process plus children that
#: only set up); ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="run one pass at seed 0 and record its outputs as the reference",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.record and args.seed != 0:
        parser.error("--record records seed 0 only")
    return args


def fail(message):
    print(f"repobench: {message}", file=sys.stderr)
    return 2


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric == "ref_error_pct":
        return "pp"  # percentage points
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric.startswith("sim.us_per_task"):
        return "us"
    if metric.endswith("_ns_per_request"):
        return "ns"
    if metric.endswith(("_ratio", "_fraction")):
        return "ratio"
    return "count"


def run_all(args):
    """Every workload, each in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            return fail(f"workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


def child_setups(args, count):
    """Set-up seconds of ``count`` fresh processes that only set up."""
    times = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, timeout=120, check=True,
        )
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        speed.stop_sampling()
        return run_all(args)
    if not (REPO / "src" / "repro").is_dir():
        return fail(f"no program source at {REPO / 'src' / 'repro'}")
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    try:
        import stats
        import suite
    except ImportError as exc:
        return fail(f"cannot import the program: {exc}")

    workload = suite.WORKLOADS[args.workload]
    try:
        inputs = workload.inputs(args.seed)
        prepared = workload.prepare(inputs)
    except OSError as exc:
        return fail(str(exc))
    reference = None
    if args.seed == 0 and not args.record:
        reference = suite.load_reference(workload.name)
        if reference is None:
            return fail(f"no recorded seed-0 outputs for {workload.name}")
    # Set-up at reference speed, between the probe at process start and
    # one here; the probes themselves are not set-up.
    setup_end, probed, _ = speed.boundary()
    inside, probing = speed.take(_PROBED, setup_end)
    setup_host = setup_end - _STARTED - (_PROBED - _PROBE_BEGAN) - probing
    setup_s = setup_host * speed.scale(_START_PROBE, probed, *inside)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    work_root = REPO / ".repobench-work"
    work_dir = work_root / str(os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)  # left by a killed run
    try:
        if args.record:
            result = workload.run_pass(inputs, prepared, work_dir)
            suite.record_reference(workload.name, result.ops)
            print(f"recorded {len(result.ops)} ops of {workload.name} at seed 0")
            return 0
        plain, traced, layers = measure(args, workload, inputs, prepared, work_dir)
    finally:
        speed.stop_sampling()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still has its directory there

    every = plain + traced
    ops = [op for p in every for op in p.ops]
    failed = set()
    for index, p in enumerate(every):
        failed.update((index, key) for key in suite.failed_ops(p.ops, reference))
    ops_per_pass = len(plain[0].ops)
    ref_error = plain[0].ref_error_pct

    print(f"workload {workload.name}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  ops/pass {ops_per_pass}")
    print(f"  inputs: {json.dumps(inputs)[:160]}")
    for index, key in sorted(failed)[:10]:
        print(f"  FAILED pass {index} op {key}")
    print(f"  error_rate        {len(failed) / len(ops):.6g}   ({len(failed)} of {len(ops)} ops)")
    print("  ref_error_pct     "
          + ("n/a" if ref_error is None else f"{ref_error:.6g} pp"))

    if args.trace == 0:
        metrics = end_to_end(args, plain, setup_s, stats)
        tail_value, percentile, group_ops = stats.grouped_tail(
            [[op.reference_seconds for op in p.ops] for p in plain]
        )
        throughput = "lint_files_per_s" if workload.name == "lint-src" else "sim_tasks_per_s"
        for name, value in metrics.items():
            extra = ""
            if name == "op_tail_ms":
                extra = f"   (p{percentile:.1f} of {group_ops} ops per group)"
            elif name == "work_per_s":
                extra = f"   (= {throughput})"
            print(f"  {name:<17} {value:.6g} {unit_of(name)}{extra}")
    else:
        metrics = layers
        metrics["ref_error_pct"] = 0.0 if ref_error is None else ref_error
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.6g} {unit_of(name)}")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0


def measure(args, workload, inputs, prepared, work_dir):
    """Run passes for about ``args.seconds``; returns the untraced
    passes, the traced passes and (traced runs) the per-layer metrics."""
    import stats
    import suite
    import tracing

    plain, traced, layer_runs, elapsed_by_pass = [], [], [], []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        pass_dir = work_dir / f"pass{len(plain) + len(traced)}"
        if args.trace == 0 or len(traced) >= len(plain):
            plain.append(workload.run_pass(inputs, prepared, pass_dir))
        else:
            tracer = tracing.Tracer()
            speed.stop_sampling()
            installation = tracing.install(tracer)
            try:
                traced.append(workload.run_pass(inputs, prepared, pass_dir, tracer))
            finally:
                installation.restore()
                speed.start_sampling()
            layer_runs.append(tracing.layer_metrics(tracer, suite.LintSrc.FAMILIES))
        elapsed_by_pass.append(time.perf_counter() - pass_started)
        elapsed = time.perf_counter() - started
        typical = statistics.median(elapsed_by_pass)
        enough = (
            len(plain) >= stats.passes_per_group(len(plain[0].ops))
            if args.trace == 0
            else len(traced) >= 1 and len(traced) == len(plain)
        )
        if enough and elapsed + typical > args.seconds:
            break
    if args.trace == 0:
        return plain, traced, None

    layers = {
        name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
    }
    # Traced passes do not probe, so both sides are host seconds.
    layers["trace.wall_s"] = statistics.median(p.host_wall for p in traced)
    layers["trace.overhead_pct"] = 100.0 * (
        layers["trace.wall_s"] / statistics.median(p.host_wall for p in plain) - 1.0
    )
    return plain, traced, layers


def end_to_end(args, plain, setup_s, stats):
    setups = [setup_s] + child_setups(args, SETUP_REPEATS - 1)
    op_seconds = [[op.reference_seconds for op in p.ops] for p in plain]
    tail_value, _, _ = stats.grouped_tail(op_seconds)
    return {
        "wall_s": statistics.median(p.wall for p in plain),
        "op_p50_ms": 1e3 * stats.per_op_median(op_seconds),
        "op_tail_ms": 1e3 * tail_value,
        "work_per_s": statistics.median(p.work / p.work_seconds for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        speed.stop_sampling()  # an armed timer would kill the exiting process
