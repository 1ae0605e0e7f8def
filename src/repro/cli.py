"""Command-line interface.

``python -m repro <command>`` exposes the library's main entry points
without writing Python:

* ``list-workloads`` — registered workloads and their pair counts;
* ``list-policies`` — the registered throttling policies, their
  parameters, and one-line summaries (the policy registry,
  :mod:`repro.core.registry`); ``run``, ``compare``, and ``suite``
  accept any of them as ``NAME[:key=value,...]``;
* ``ratio WORKLOAD`` — measure a workload's ``T_m1/T_c`` (Table II/III);
* ``run WORKLOAD`` — simulate under a policy and report speedup,
  selected MTL, and optionally the schedule gantt;
* ``compare WORKLOAD`` — the Figure 14 three-policy comparison;
* ``sweep`` — a miniature Figure 13 synthetic sweep;
* ``perfbench`` — engine performance microbenchmarks writing
  ``BENCH_sim.json`` (see ``docs/performance.md``);
* ``lint`` — AST-based static invariant checks (determinism,
  telemetry-schema integrity, executor and API hygiene, plus the
  call-graph-based transitive-determinism, pool-safety,
  plugin-contract, mutation-after-freeze, exception-flow, and dimflow
  unit families; see ``docs/static_analysis.md``).  ``--jobs N`` fans the
  per-file pass over worker processes with identical output;
  ``--cache-dir DIR`` makes warm runs skip unchanged files;
  ``--format sarif`` renders SARIF 2.1.0; ``--explain RPR###`` prints
  one rule's documentation; exit code 1 on findings, 2 on
  usage/configuration errors.

Workloads are named as in the paper (``dft``, ``SC_d128``, ``SIFT``)
or loaded from a JSON spec via ``--spec`` (see
:mod:`repro.workloads.spec`).  Machines are configured with
``--channels`` and ``--smt``.

The grid-shaped commands (``sweep``, ``suite``, ``compare``) run
through the parallel sweep executor and accept ``--jobs N`` (worker
processes), ``--cache-dir PATH`` (content-addressed result cache; also
settable via ``REPRO_CACHE_DIR``), ``--no-cache``, and
``--telemetry PATH`` (JSON-lines run telemetry).  ``--jobs 1`` is the
serial in-process path and produces bit-identical results.

Resilience flags on the same commands: ``--timeout SECONDS`` (per-point
budget, pool mode), ``--retries N`` (bounded retries before a point
degrades into a structured failure), and ``--inject-faults SPEC``
(deterministic chaos testing, e.g. ``seed=7,crash=0.2,error=0.1`` —
see ``docs/fault_injection.md``).  A sweep with failed points still
prints every healthy row and exits with code 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Mapping, Optional

from repro.analysis import (
    format_comparison,
    format_percent,
    format_speedup,
    render_table,
)
from repro.core import (
    build_policy,
    conventional_policy,
    parse_policy_arg,
    policy_catalogue,
    policy_entry,
    predict_speedup_curve,
)
from repro.errors import ReproError
from repro.runtime import (
    FaultPlan,
    PointFailure,
    ResultCache,
    SweepExecutor,
    SweepPoint,
    TelemetryWriter,
    all_policy_specs,
    compare_policies_grid,
    measure_ratio,
    offline_best_static_factory,
    paper_policy_specs,
)
from repro.sim import Simulator, i7_860
from repro.sim.gantt import render_gantt
from repro.stream.program import StreamProgram
from repro.units import format_time
from repro.workloads import build_workload, workload_names
from repro.workloads.spec import load_workload_spec

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory thread throttling (MICRO 2010) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--channels", type=int, default=1,
                       help="memory channels (1 or 2)")
        p.add_argument("--smt", type=int, default=1,
                       help="SMT ways (1 = off, 2 = on)")

    def add_workload_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("workload", nargs="?",
                       help="registered workload name (see list-workloads)")
        p.add_argument("--spec", help="path to a JSON workload spec")

    def add_executor_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial in-process)")
        p.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR if set, else no cache)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
        p.add_argument("--telemetry", default=None,
                       help="append JSON-lines run telemetry to PATH")
        p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-point wall-clock budget; a point exceeding "
                            "it is retried (at --jobs 1 it governs injected "
                            "hangs only)")
        p.add_argument("--retries", type=int, default=2,
                       help="retry budget per point before it degrades "
                            "into a structured failure (default: 2)")
        p.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="deterministic fault injection, e.g. "
                            "'seed=7,crash=0.2,error=0.1,hang=0.05'; see "
                            "docs/fault_injection.md")

    sub.add_parser("list-workloads", help="list registered workloads")

    sub.add_parser(
        "list-policies",
        help="list registered throttling policies and their parameters",
    )

    ratio = sub.add_parser("ratio", help="measure a workload's T_m1/T_c")
    add_workload_options(ratio)
    add_machine_options(ratio)

    run = sub.add_parser("run", help="simulate a workload under a policy")
    add_workload_options(run)
    add_machine_options(run)
    run.add_argument(
        "--policy",
        default="dynamic",
        help="registered policy name, optionally with parameters as "
             "NAME:key=value[,key=value...] (see list-policies); also "
             "offline and the static:K shorthand",
    )
    run.add_argument("--gantt", action="store_true",
                     help="render the schedule as ASCII")
    run.add_argument("--window-pairs", type=int, default=16,
                     help="W, the monitoring window (dynamic/online)")

    compare = sub.add_parser(
        "compare", help="offline vs dynamic vs online (Figure 14 row)"
    )
    add_workload_options(compare)
    add_machine_options(compare)
    add_executor_options(compare)
    compare.add_argument(
        "--policies", nargs="*", default=None, metavar="NAME[:k=v,...]",
        help="policies to compare (registered names with optional "
             "parameters; default: the Figure 14 trio)",
    )
    compare.add_argument(
        "--all-policies", action="store_true",
        help="compare every registered policy (see list-policies)",
    )

    characterize_cmd = sub.add_parser(
        "characterize",
        help="per-phase ratios, IdleBounds, and model predictions",
    )
    add_workload_options(characterize_cmd)
    add_machine_options(characterize_cmd)

    sweep = sub.add_parser("sweep", help="synthetic ratio sweep (Figure 13)")
    sweep.add_argument("--start", type=float, default=0.05)
    sweep.add_argument("--stop", type=float, default=2.0)
    sweep.add_argument("--step", type=float, default=0.1)
    add_executor_options(sweep)

    suite = sub.add_parser(
        "suite",
        help="run the realistic workloads x machines x policies grid as CSV",
    )
    suite.add_argument(
        "--workloads", nargs="*", default=None,
        help="workload names (default: the Figure 14 trio)",
    )
    suite.add_argument(
        "--policies", nargs="*", default=None, metavar="NAME[:k=v,...]",
        help="policies for the grid (registered names with optional "
             "parameters; default: dynamic, static-1, static-2)",
    )
    add_executor_options(suite)

    lint = sub.add_parser(
        "lint",
        help="static invariant checks (determinism, frozen memo state, "
             "units, telemetry schema; see docs/static_analysis.md)",
        epilog="exit codes: 0 no findings; 1 findings reported; "
               "2 usage or configuration error (unknown rule id, "
               "missing path, unreadable baseline)",
    )
    lint.add_argument("paths", nargs="*", default=None, metavar="PATH",
                      help="files or directories to check "
                           "(default: src tests)")
    lint.add_argument("--rule", action="append", dest="rules",
                      metavar="RPR###",
                      help="run only this rule (repeatable)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      dest="fmt", help="report format (default: text; "
                           "sarif is SARIF 2.1.0 for code-scanning UIs)")
    lint.add_argument("--output", default=None, metavar="PATH",
                      help="also write the report to PATH ('-' prints the "
                           "JSON report to stdout; the CI job uploads the "
                           "JSON and SARIF reports as artifacts)")
    lint.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the per-file pass "
                           "(1 = in-process; findings are identical and "
                           "identically ordered either way)")
    lint.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="content-hash scan cache: warm runs skip files "
                           "whose bytes (and the rule set) are unchanged, "
                           "with byte-identical output")
    lint.add_argument("--graph-output", default=None, metavar="PATH",
                      help="serialize the project call graph to PATH as "
                           "JSON (the CI job uploads it as an artifact)")
    lint.add_argument("--units-output", default=None, metavar="PATH",
                      help="serialize the inferred unit-signature table "
                           "(per-parameter/return dimensions closed over "
                           "the call graph) to PATH as JSON")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="drop findings fingerprinted in this baseline "
                           "file (accepted pre-existing debt)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write the current findings to --baseline "
                           "instead of failing on them")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--explain", default=None, metavar="RPR###",
                      help="print one rule's catalogue entry and its "
                           "docs/static_analysis.md section, then exit")

    perfbench = sub.add_parser(
        "perfbench",
        help="engine performance microbenchmarks (writes BENCH_sim.json)",
    )
    perfbench.add_argument("--quick", action="store_true",
                           help="smaller grids/rep counts (the CI perf job)")
    perfbench.add_argument("--profile", action="store_true",
                           help="cProfile the engine benchmark and report "
                                "the top functions by cumulative time")
    perfbench.add_argument("--output", default=None, metavar="PATH",
                           help="report destination (default: BENCH_sim.json; "
                                "'-' prints JSON to stdout only)")
    perfbench.add_argument("--baseline", default=None, metavar="PATH",
                           help="perf baseline for before/after speedups and "
                                "--check (default: benchmarks/perf/"
                                "baseline.json)")
    perfbench.add_argument("--check", action="store_true",
                           help="exit 4 if engine events/sec regressed >30%% "
                                "against the baseline's current block")
    perfbench.add_argument("--telemetry", default=None, metavar="PATH",
                           help="append snapshot_cache/profile telemetry "
                                "to PATH")
    return parser


def _executor_from_args(args: argparse.Namespace) -> SweepExecutor:
    """Build the sweep executor a grid command asked for."""
    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    cache = None
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if cache_dir and not args.no_cache:
        cache = ResultCache(cache_dir)
    telemetry = TelemetryWriter(args.telemetry) if args.telemetry else None
    fault_plan = (
        FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    )
    return SweepExecutor(
        jobs=args.jobs,
        cache=cache,
        telemetry=telemetry,
        timeout=args.timeout,
        retries=args.retries,
        fault_plan=fault_plan,
    )


def _report_failures(failures) -> int:
    """Print degraded points to stderr; exit code 3 if any."""
    if not failures:
        return 0
    for failure in failures:
        print(
            f"warning: point {failure.label or failure.key[:12]} failed "
            f"after {failure.attempts} attempts: {failure.reason}",
            file=sys.stderr,
        )
    print(
        f"warning: {len(failures)} point(s) degraded; healthy rows above "
        "are unaffected",
        file=sys.stderr,
    )
    return 3


def _workload_spec_from_args(args: argparse.Namespace) -> Mapping[str, Any]:
    """Declarative workload spec for the executor-backed commands."""
    if args.spec:
        try:
            document = json.loads(open(args.spec).read())
        except OSError as exc:
            raise ReproError(f"cannot read workload spec {args.spec}: {exc}")
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"workload spec {args.spec} is not valid JSON: {exc}"
            )
        return {"kind": "spec", "document": document}
    if not args.workload:
        raise ReproError("give a workload name or --spec PATH")
    return {"kind": "registry", "name": args.workload}


def _load_program(args: argparse.Namespace) -> StreamProgram:
    if args.spec:
        return load_workload_spec(args.spec)
    if not args.workload:
        raise ReproError("give a workload name or --spec PATH")
    return build_workload(args.workload)


def _machine(args: argparse.Namespace):
    return i7_860(channels=args.channels, smt=args.smt)


def _make_policy(name: str, program: StreamProgram, machine, window_pairs: int):
    """Build the policy ``--policy`` names, via the registry.

    Two spellings bypass the registry: ``offline`` (a meta-procedure,
    not a registered policy) and the legacy ``static:K`` shorthand for
    ``static:mtl=K``.
    """
    if name == "offline":
        return offline_best_static_factory(program, machine)()
    if name.startswith("static:") and "=" not in name:
        tail = name.split(":", 1)[1]
        try:
            name = f"static:mtl={int(tail)}"
        except ValueError:
            raise ReproError(
                f"unknown policy {name!r}; use static:K or static:mtl=K"
            ) from None
    kind, params = parse_policy_arg(name)
    # --window-pairs feeds every policy that monitors in windows,
    # unless the arg already pins W explicitly.
    if (
        policy_entry(kind).param("window_pairs") is not None
        and "window_pairs" not in params
    ):
        params["window_pairs"] = window_pairs
    return build_policy(kind, machine.context_count, params)


def _cmd_list_workloads() -> int:
    rows = [
        [name, str(build_workload(name).total_pairs)]
        for name in workload_names()
    ]
    print(render_table(["workload", "task pairs"], rows))
    return 0


def _cmd_list_policies() -> int:
    rows = []
    for entry in policy_catalogue():
        params = ", ".join(
            f"{p['name']}={p['default']}" for p in entry["params"]
        )
        rows.append([entry["name"], params or "-", entry["summary"]])
    print(render_table(["policy", "parameters", "summary"], rows))
    return 0


def _policy_specs_from_args(args: argparse.Namespace) -> Mapping[str, Any]:
    """Turn ``--policies NAME[:k=v,...]`` into name-keyed specs."""
    specs = {}
    for text in args.policies:
        kind, params = parse_policy_arg(text)
        name = text if text != kind else kind
        if name in specs:
            raise ReproError(f"policy {name!r} given twice in --policies")
        specs[name] = {"kind": kind, **params}
    return specs


def _cmd_ratio(args: argparse.Namespace) -> int:
    program = _load_program(args)
    ratio = measure_ratio(program, machine=_machine(args))
    print(f"{program.name}: T_m1/T_c = {format_percent(ratio)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args)
    machine = _machine(args)
    policy = _make_policy(args.policy, program, machine, args.window_pairs)
    simulator = Simulator(machine)
    result = simulator.run(program, policy)
    baseline = simulator.run(
        program, conventional_policy(machine.context_count)
    )
    print(f"workload: {program.name} ({program.total_pairs} pairs)")
    print(f"machine:  {machine.name}")
    print(f"policy:   {policy.name}")
    print(f"makespan: {format_time(result.makespan)}")
    print(
        "speedup vs conventional: "
        f"{format_speedup(baseline.makespan / result.makespan)}"
    )
    print(f"dominant MTL: {result.dominant_mtl()}")
    if args.gantt:
        print()
        print(render_gantt(result))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.runtime.characterize import characterize

    program = _load_program(args)
    print(characterize(program, machine=_machine(args)).render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.all_policies and args.policies:
        raise ReproError("give --policies or --all-policies, not both")
    if args.all_policies:
        policies = all_policy_specs()
    elif args.policies:
        policies = _policy_specs_from_args(args)
    else:
        policies = paper_policy_specs()
    result = compare_policies_grid(
        _workload_spec_from_args(args),
        policies,
        machine={"preset": "i7_860", "channels": args.channels, "smt": args.smt},
        executor=_executor_from_args(args),
    )
    print(format_comparison(result))
    return _report_failures(result.failures)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.step <= 0 or args.stop < args.start:
        raise ReproError("sweep needs step > 0 and stop >= start")
    from repro.memory.contention import nehalem_ddr3_contention

    ratios = []
    value = args.start
    while value <= args.stop + 1e-9:
        ratios.append(round(value, 6))
        value += args.step
    predictions = predict_speedup_curve(ratios, nehalem_ddr3_contention())
    points = [
        SweepPoint(
            workload={"kind": "synthetic", "ratio": ratio, "pairs": 48},
            policy={"kind": "offline"},
            label=f"sweep/r={ratio:.2f}",
        )
        for ratio in ratios
    ]
    outcomes = _executor_from_args(args).run(points)
    rows = []
    for prediction, outcome in zip(predictions, outcomes):
        if isinstance(outcome, PointFailure):
            rows.append(
                [
                    f"{prediction.ratio:.2f}",
                    "failed",
                    "-",
                    format_speedup(prediction.speedup),
                    str(prediction.best_mtl),
                ]
            )
            continue
        assert outcome.per_mtl_makespan is not None
        rows.append(
            [
                f"{prediction.ratio:.2f}",
                format_speedup(outcome.per_mtl_makespan[4] / outcome.makespan),
                str(outcome.selected_mtl),
                format_speedup(prediction.speedup),
                str(prediction.best_mtl),
            ]
        )
    print(
        render_table(
            ["T_m1/T_c", "measured", "S-MTL", "analytical", "model MTL"], rows
        )
    )
    return _report_failures(
        [o for o in outcomes if isinstance(o, PointFailure)]
    )


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.runtime.suite import run_suite_grid
    from repro.workloads import realistic_workloads

    names = args.workloads if args.workloads else realistic_workloads()
    workloads = {
        name: {"kind": "registry", "name": name} for name in names
    }
    machines = [
        {"preset": "i7_860", "channels": 1},
        {"preset": "i7_860", "channels": 2},
    ]
    if args.policies:
        policies = _policy_specs_from_args(args)
    else:
        policies = {
            "dynamic": {"kind": "dynamic"},
            "static-1": {"kind": "static", "mtl": 1},
            "static-2": {"kind": "static", "mtl": 2},
        }
    result = run_suite_grid(
        workloads, machines, policies, executor=_executor_from_args(args)
    )
    print(result.to_csv(), end="")
    return _report_failures(result.failures)


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (
        LintEngine,
        build_rules,
        explain_rule,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        rule_catalogue,
    )
    from repro.lint.reporters import write_baseline

    if args.list_rules:
        for row in rule_catalogue():
            print(
                f"{row['id']}  [{row['severity']}] "
                f"({row['family']}) {row['title']}"
            )
        return 0
    if args.explain:
        print(explain_rule(args.explain), end="")
        return 0
    paths = args.paths or ["src", "tests"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise ReproError(f"lint path(s) do not exist: {', '.join(missing)}")
    if args.write_baseline and not args.baseline:
        raise ReproError("--write-baseline needs --baseline PATH")
    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    rules = build_rules(only=args.rules)
    enabled = set(args.rules) if args.rules else None
    baseline = set()
    if args.baseline and not args.write_baseline:
        baseline = load_baseline(args.baseline)
    engine = LintEngine(
        rules=rules,
        enabled=enabled,
        baseline=baseline,
        jobs=args.jobs,
        want_graph=bool(args.graph_output),
        want_units=bool(args.units_output),
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
    )
    report = engine.run([Path(p) for p in paths])
    if args.graph_output and engine.graph is not None:
        with open(args.graph_output, "w") as handle:
            handle.write(engine.graph.to_json())
    if args.units_output and engine.units is not None:
        with open(args.units_output, "w") as handle:
            handle.write(engine.units.to_json())
    if args.write_baseline:
        write_baseline(report, args.baseline)
        print(
            f"wrote {len(report.findings)} fingerprint(s) to {args.baseline}"
        )
        return 0
    if args.output == "-":
        # '-' means: the JSON document *is* the stdout stream (piped
        # into jq and friends), regardless of --format.
        print(render_json(report), end="")
        return 1 if report.findings else 0
    renderers = {"json": render_json, "sarif": render_sarif}
    rendered = renderers.get(args.fmt, render_text)(report)
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
    return 1 if report.findings else 0


def _cmd_perfbench(args: argparse.Namespace) -> int:
    from repro.runtime.perfbench import (
        DEFAULT_BASELINE_PATH,
        DEFAULT_OUTPUT_PATH,
        check_against_baseline,
        format_report,
        run_perfbench,
    )

    telemetry = TelemetryWriter(args.telemetry) if args.telemetry else None
    baseline_path = args.baseline or DEFAULT_BASELINE_PATH
    report = run_perfbench(
        quick=args.quick,
        profile=args.profile,
        baseline_path=baseline_path,
        telemetry=telemetry,
    )
    output = args.output or DEFAULT_OUTPUT_PATH
    if output == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(format_report(report))
        print(f"\nreport written to {output}")
    if args.check:
        failures = check_against_baseline(report, report.get("baseline"))
        for failure in failures:
            print(f"perf check failed: {failure}", file=sys.stderr)
        if failures:
            return 4
        print("perf check passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-workloads":
            return _cmd_list_workloads()
        if args.command == "list-policies":
            return _cmd_list_policies()
        if args.command == "ratio":
            return _cmd_ratio(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "characterize":
            return _cmd_characterize(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "perfbench":
            return _cmd_perfbench(args)
        parser.error(f"unknown command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; the Unix
        # convention is to exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
