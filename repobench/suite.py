"""The benchmark's four workloads.

Each workload turns a seed into plain inputs (:meth:`inputs`), loads
what its checks compare against (:meth:`prepare`), and runs one pass
(:meth:`run_pass`): a fixed amount of the program's work, split into
timed *ops*, each with the output its check needs.  The program is
driven only through public entry points of ``repro.runtime``,
``repro.sim``, ``repro.memory``, ``repro.core``, ``repro.workloads``,
``repro.stream`` and ``repro.lint``, called as attributes of their
modules so the traced run's wrappers see every call.

Why these four (the profile shares are from single-process runs on a
2-core x86-64 container; see ``README.md``):

* ``sweep`` -- the declarative-sweep path every figure uses; noise-free,
  the rate engine does ~80% of the work, snapshot and equilibrium memos
  mostly hit; the only workload with 8-32-context machines and with
  result-cache writes;
* ``noisy-sift`` -- SIFT under Gaussian noise with the paper's repeated
  runs: task graphs are rebuilt every run (~35% of the time), ~13% of
  snapshot lookups miss, policy hooks fire on every completion;
* ``request-level`` -- the only workload where ``memory.dram`` and
  ``sim.detailed`` do the work (~98% of the time), the rate engine is
  nearly idle;
* ``lint-src`` -- the static-analysis stack, cold and warm over ``src/``
  and over the acceptance corpora.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.core as core
import repro.lint as lint
import repro.memory.calibration as calibration
import repro.memory.contention as contention
import repro.runtime as runtime
import repro.sim as sim
import repro.stream.program as stream_program
import repro.workloads as workloads
from repro.errors import MeasurementError

import speed

REPO = Path(__file__).resolve().parent.parent
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

MIB = 1 << 20


@dataclass
class Op:
    """One timed unit of work and the output its check compares."""

    key: str
    seconds: float
    output: Dict[str, Any]
    #: False when a seed-independent invariant failed for this op.
    invariant_ok: bool = True
    #: ``seconds`` (host seconds, without the probes that ran inside
    #: the op) rescaled to the reference host speed (``speed.py``);
    #: equal to ``seconds`` in passes that do not probe.
    reference_seconds: float = 0.0


@dataclass
class PassResult:
    """One pass of a workload."""

    ops: List[Op]
    #: Seconds of the pass's timed intervals (every op, plus intervals
    #: timed but not ops, such as sweep's warm replay) at reference
    #: speed ...
    wall: float = 0.0
    #: ... and in host seconds.
    host_wall: float = 0.0
    #: Units of work the throughput metric counts (simulated task
    #: completions, or files scanned on the cold lint pass) ...
    work: float = 0.0
    #: ... and the reference seconds they took.
    work_seconds: float = 0.0
    #: Error against the workload's independent reference, in
    #: percentage points (``None`` where the workload has none).
    ref_error_pct: Optional[float] = None


class OpClock:
    """Times ops and tells the tracer which op is running.

    Untraced passes probe the host's speed at both ends of every op
    (:func:`speed.boundary`), take the probes sampled inside it
    (:func:`speed.take`) and rescale the op to reference speed.  Traced
    passes do not probe, so no probe falls inside a span.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.ops: List[Op] = []
        #: Intervals timed like ops but not ops (no check, no op stats).
        self.extra: List[Op] = []
        self._key = ""
        self._start = 0.0
        self._probe = speed.REFERENCE_PROBE_S

    def _boundary(self) -> Tuple[float, float, float]:
        """``(time before, probe seconds, time after)`` of one probe."""
        if self.tracer is not None:
            now = time.perf_counter()
            return now, speed.REFERENCE_PROBE_S, now
        return speed.boundary()

    def _close(self, end: float, probed: float, into: List[Op]) -> Op:
        inside, probing = [], 0.0
        if self.tracer is None:
            inside, probing = speed.take(self._start, end)
        seconds = end - self._start - probing
        op = Op(self._key, seconds, {})
        op.reference_seconds = seconds * speed.scale(self._probe, probed, *inside)
        into.append(op)
        return op

    def begin(self, key: str) -> None:
        if self.tracer is not None:
            self.tracer.op = key
        self._key = key
        _, self._probe, self._start = self._boundary()

    def end(self, is_op: bool = True) -> Op:
        end, probed, _ = self._boundary()
        return self._close(end, probed, self.ops if is_op else self.extra)

    def lap(self, key: str) -> None:
        """Ends the op in progress and begins op ``key`` at one probe."""
        end, probed, after = self._boundary()
        self._close(end, probed, self.ops)
        if self.tracer is not None:
            self.tracer.op = key
        self._key, self._probe, self._start = key, probed, after

    def run(self, key: str, call: Callable[[], Any], is_op: bool = True) -> Any:
        self.begin(key)
        value = call()
        self.end(is_op)
        return value

    def run_each(self, keys: Sequence[str], call: Callable[[int], Any]) -> List[Any]:
        """Runs ``call(i)`` as op ``keys[i]`` for every ``i``, back to
        back, with one probe between consecutive ops."""
        values = []
        for index, key in enumerate(keys):
            if index:
                self.lap(key)
            else:
                self.begin(key)
            values.append(call(index))
        self.end()
        return values

    def walls(self) -> Tuple[float, float]:
        """``(reference, host)`` seconds of every interval timed so far."""
        timed = self.ops + self.extra
        return sum(op.reference_seconds for op in timed), sum(op.seconds for op in timed)


class Workload:
    """Base class; subclasses define the four workloads."""

    name = ""

    def inputs(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Loads and computes what the checks compare against."""
        return {}

    def run_pass(
        self, inputs: Dict[str, Any], prepared: Dict[str, Any], work_dir: Path,
        tracer: Any = None,
    ) -> PassResult:
        raise NotImplementedError


def load_reference(workload: str) -> Optional[Dict[str, Dict[str, Any]]]:
    """The recorded seed-0 output of every op of ``workload``."""
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


def record_reference(workload: str, ops: Sequence[Op]) -> None:
    document = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    document[workload] = {op.key: op.output for op in ops}
    REFERENCE_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def failed_ops(ops: Sequence[Op], reference: Optional[Dict[str, Dict[str, Any]]]) -> List[str]:
    """Keys of ops whose invariant failed or whose output differs from
    the reference (compared exactly: the simulations are deterministic)."""
    failed = []
    for op in ops:
        if not op.invariant_ok:
            failed.append(op.key)
        elif reference is not None and reference.get(op.key) != op.output:
            failed.append(op.key)
    return failed


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def point_tasks(result: Any) -> int:
    """Simulated task completions behind one sweep point.

    An offline point simulates the program once per static MTL but its
    result reports one run's ``task_count``; every run completes every
    task, so the point's work is ``task_count`` times the number of
    MTLs searched.  (``perfbench``'s ``sim_events`` credits an offline
    point with the winning run only.)
    """
    runs = len(result.per_mtl_makespan) if result.per_mtl_makespan else 1
    return result.task_count * runs


# ----------------------------------------------------------------------
# sweep


class Sweep(Workload):
    name = "sweep"

    FOOTPRINTS_MB = (0.5, 1.0, 2.0)
    CELLS = 80
    CELL = 0.05
    PAIRS = 96
    SMT_DEPTHS = (1, 2, 4)
    CHANNELS = (8, 2)

    def inputs(self, seed: int) -> Dict[str, Any]:
        # Seed 0 is the paper grid (right edge of every 0.05 cell);
        # other seeds draw one ratio inside each cell.
        if seed == 0:
            ratios = [round(self.CELL * i, 2) for i in range(1, self.CELLS + 1)]
        else:
            rng = random.Random(seed)
            ratios = [
                round(self.CELL * (i - 1 + rng.uniform(0.02, 1.0)), 4)
                for i in range(1, self.CELLS + 1)
            ]
        return {"ratios": ratios}

    def points(self, inputs: Dict[str, Any]) -> List[Any]:
        points = []
        for footprint in self.FOOTPRINTS_MB:
            for ratio in inputs["ratios"]:
                points.append(
                    runtime.SweepPoint(
                        workload={
                            "kind": "synthetic",
                            "ratio": ratio,
                            "footprint_bytes": int(footprint * MIB),
                            "pairs": self.PAIRS,
                            "llc": {"capacity_bytes": 8 * MIB, "sharers": 4},
                        },
                        policy={"kind": "offline"},
                        label=f"fig13/{footprint:g}MB/r={ratio}",
                    )
                )
        for channels in self.CHANNELS:
            for smt in self.SMT_DEPTHS:
                threads = sim.power7(smt=smt, channels=channels).context_count
                for policy in ("conventional", "dynamic"):
                    points.append(
                        runtime.SweepPoint(
                            workload={
                                "kind": "streamcluster",
                                "rounds": 3,
                                "pairs_per_round": 16 * threads,
                            },
                            machine={"preset": "power7", "smt": smt, "channels": channels},
                            policy={"kind": policy},
                            label=f"power7/{channels}ch/smt{smt}/{policy}",
                        )
                    )
        return points

    def prepare(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        predictions = core.predict_speedup_curve(
            inputs["ratios"], contention.nehalem_ddr3_contention()
        )
        return {
            "points": self.points(inputs),
            "predicted": {p.ratio: p.speedup for p in predictions},
        }

    def run_pass(self, inputs, prepared, work_dir, tracer=None) -> PassResult:
        cache = runtime.ResultCache(work_dir / "sweep-cache")
        executor = runtime.SweepExecutor(jobs=1, cache=cache)
        clock = OpClock(tracer)
        points = prepared["points"]
        cold = clock.run_each(
            [p.label for p in points], lambda index: executor.run([points[index]])[0]
        )
        warm = clock.run("warm-replay", lambda: executor.run(points), is_op=False)
        wall, host_wall = clock.walls()

        tasks = 0
        errors = []
        for op, point, result, replay in zip(clock.ops, points, cold, warm):
            if not isinstance(result, runtime.PointResult):
                op.invariant_ok = False
                op.output = {"failure": str(result)}
                continue
            per_mtl = result.per_mtl_makespan
            op.output = {
                "makespan": result.makespan,
                "selected_mtl": result.selected_mtl,
                "per_mtl": None if per_mtl is None else {str(m): s for m, s in sorted(per_mtl.items())},
                "task_count": result.task_count,
            }
            tasks += point_tasks(result)
            op.invariant_ok = (
                _finite_positive(result.makespan)
                and isinstance(replay, runtime.PointResult)
                and replay.to_dict() == result.to_dict()
                and (per_mtl is None or min(per_mtl, key=lambda m: (per_mtl[m], m)) == result.selected_mtl)
            )
            footprint = point.workload.get("footprint_bytes")
            if per_mtl is not None and footprint in (MIB // 2, MIB):
                predicted = prepared["predicted"][point.workload["ratio"]]
                errors.append(abs(per_mtl[4] / result.makespan - predicted))
        return PassResult(
            ops=clock.ops,
            wall=wall,
            host_wall=host_wall,
            work=tasks,
            work_seconds=wall,
            ref_error_pct=100.0 * sum(errors) / len(errors),
        )


# ----------------------------------------------------------------------
# noisy-sift


class NoisySift(Workload):
    name = "noisy-sift"

    SIGMAS = (0.0, 0.01, 0.03)
    SPIKE_PROBABILITY = 0.01
    RUNS = 8
    INSTRUMENTED_SEED = 991
    POLICIES = ("conventional", "dynamic", "online")

    def inputs(self, seed: int) -> Dict[str, Any]:
        # Seed 0 is the noise ablation's protocol exactly; other seeds
        # move every noise stream to a disjoint block of seeds.
        return {
            "sigmas": list(self.SIGMAS),
            "base_seed": 1000 * seed,
            "instrumented_seed": self.INSTRUMENTED_SEED + 1000 * seed,
        }

    @staticmethod
    def make_policy(name: str) -> Any:
        if name == "conventional":
            return sim.conventional_policy(4)
        if name == "dynamic":
            return core.DynamicThrottlingPolicy(context_count=4)
        return core.OnlineExhaustivePolicy(context_count=4)

    def run_pass(self, inputs, prepared, work_dir, tracer=None) -> PassResult:
        program = workloads.sift()
        machine = sim.i7_860()
        clock = OpClock(tracer)
        task_count = 0
        runs = 0
        for sigma in inputs["sigmas"]:

            def noise(seed: int, sigma: float = sigma) -> Any:
                return sim.GaussianNoise(
                    seed=seed, sigma=sigma, spike_probability=self.SPIKE_PROBABILITY
                )

            for name in self.POLICIES:
                keys = [f"sigma={sigma}/{name}/run{i}" for i in range(self.RUNS)]
                # The protocol builds one policy per run, right before
                # the run: those calls mark the op boundaries.
                built = [0]

                def factory(name: str = name) -> Any:
                    if built[0]:
                        clock.lap(keys[built[0]])
                    built[0] += 1
                    return self.make_policy(name)

                clock.begin(keys[0])
                measured = runtime.measure_makespan(
                    program, factory, machine=machine, runs=self.RUNS,
                    base_seed=inputs["base_seed"], noise_factory=noise,
                )
                clock.end()
                runs += self.RUNS
                protocol_ops = clock.ops[-self.RUNS:]
                for op, makespan in zip(protocol_ops, measured.makespans):
                    op.output = {"makespan": makespan}
                    op.invariant_ok = _finite_positive(makespan)
                if built[0] != self.RUNS or len(measured.makespans) != self.RUNS:
                    for op in protocol_ops:
                        op.invariant_ok = False
            for name in self.POLICIES[1:]:
                policy = self.make_policy(name)
                simulator = sim.Simulator(machine, noise=noise(inputs["instrumented_seed"]))
                result = clock.run(
                    f"sigma={sigma}/{name}/instrumented",
                    lambda: simulator.run(program, policy),
                )
                runs += 1
                task_count = result.task_count
                op = clock.ops[-1]
                op.output = {
                    "makespan": result.makespan,
                    "selections": len(policy.selections),
                    "dominant_mtl": result.dominant_mtl(),
                }
                op.invariant_ok = _consistent(result)
        wall, host_wall = clock.walls()
        return PassResult(
            ops=clock.ops, wall=wall, host_wall=host_wall, work=runs * task_count,
            work_seconds=wall,
        )


def _consistent(result: Any) -> bool:
    """``SimulationResult.verify_consistency`` as a check, not a crash."""
    try:
        result.verify_consistency()
    except MeasurementError:
        return False
    return _finite_positive(result.makespan)


# ----------------------------------------------------------------------
# request-level


class RequestLevel(Workload):
    name = "request-level"

    PAIRS = 24
    LINES = 1024  # 64 KiB tiles of 64-byte lines
    COMPUTE_TIMES = (70e-6, 30e-6, 12e-6)
    CALIBRATION_REQUESTS = 512

    def inputs(self, seed: int) -> Dict[str, Any]:
        # Seed 0 is the request-level ablation's grid; other seeds move
        # each compute time by up to 10% either way.
        if seed == 0:
            return {"compute_times": list(self.COMPUTE_TIMES)}
        rng = random.Random(seed)
        return {"compute_times": [t * rng.uniform(0.9, 1.1) for t in self.COMPUTE_TIMES]}

    def run_pass(self, inputs, prepared, work_dir, tracer=None) -> PassResult:
        clock = OpClock(tracer)
        fit = clock.run(
            "calibrate",
            lambda: calibration.calibrate_linear_model(
                requests_per_stream=self.CALIBRATION_REQUESTS
            ),
        )
        clock.ops[-1].output = {"latencies": list(fit.latencies)}
        rate_machine = sim.i7_860(contention=fit.model)
        policies = [("conventional", lambda: sim.conventional_policy(4))] + [
            (f"mtl{m}", lambda m=m: sim.FixedMtlPolicy(m)) for m in (1, 2, 3, 4)
        ]
        runners = {
            "detailed": lambda program, policy: sim.DetailedSimulator().run(program, policy),
            "rate": lambda program, policy: sim.Simulator(rate_machine).run(program, policy),
        }
        tasks = 0
        speedups: Dict[str, List[float]] = {"detailed": [], "rate": []}
        for index, t_c in enumerate(inputs["compute_times"]):
            program = stream_program.StreamProgram(
                f"tc-{t_c:.0e}",
                [stream_program.build_phase("p", 0, self.PAIRS, self.LINES, t_c)],
            )
            for kind, runner in runners.items():
                makespans = {}
                for label, make in policies:
                    policy = make()
                    result = clock.run(
                        f"tc{index}/{kind}/{label}", lambda: runner(program, policy)
                    )
                    clock.ops[-1].output = {"makespan": result.makespan}
                    clock.ops[-1].invariant_ok = _consistent(result)
                    tasks += result.task_count
                    makespans[label] = result.makespan
                best = min(range(1, 5), key=lambda m: (makespans[f"mtl{m}"], m))
                speedups[kind].append(makespans["conventional"] / makespans[f"mtl{best}"])
        wall, host_wall = clock.walls()
        error = max(abs(d - r) for d, r in zip(speedups["detailed"], speedups["rate"]))
        return PassResult(
            ops=clock.ops, wall=wall, host_wall=host_wall, work=tasks, work_seconds=wall,
            ref_error_pct=100.0 * error,
        )


# ----------------------------------------------------------------------
# lint-src


class LintSrc(Workload):
    name = "lint-src"

    SOURCES = REPO / "src"
    FIXTURES = REPO / "tests" / "lint" / "fixtures"
    #: Rule families run alone over ``src/`` in every pass.  Fixed here
    #: so the op keys and per-layer metric names do not change when
    #: rules are merged: a family that no longer has rules is skipped
    #: and its metric reads 0.
    FAMILIES = (
        "determinism", "memo-safety", "telemetry", "executor-hygiene",
        "api-hygiene", "transitive-determinism", "pool-safety", "dimensional",
        "plugin-contract", "mutation-after-freeze", "exception-flow", "dimflow",
    )

    def inputs(self, seed: int) -> Dict[str, Any]:
        # The corpora are the repository's own files; the seed only
        # orders the acceptance corpora.
        corpora = sorted(p.name for p in (self.FIXTURES / "acceptance").iterdir() if p.is_dir())
        if seed != 0:
            random.Random(seed).shuffle(corpora)
        return {"corpora": corpora}

    def prepare(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        if not self.SOURCES.is_dir() or not inputs["corpora"]:
            raise FileNotFoundError(f"lint corpora missing under {REPO}")
        families: Dict[str, List[str]] = {family: [] for family in self.FAMILIES}
        for row in lint.rule_catalogue():
            if row["family"] in families:
                families[str(row["family"])].append(str(row["id"]))
        # Modules the engine imports on first use; loading them here
        # keeps that one-time cost in set-up rather than in the first pass.
        import repro.lint.dimflow.fixpoint  # noqa: F401
        import repro.lint.effects.fixpoint  # noqa: F401
        import repro.lint.graph.builder  # noqa: F401

        return {"families": families}

    @staticmethod
    def _signature(report: Any) -> List[Any]:
        return [(f.path, f.line, f.rule, f.message) for f in report.findings]

    def run_pass(self, inputs, prepared, work_dir, tracer=None) -> PassResult:
        clock = OpClock(tracer)
        cache_dir = work_dir / "lint-cache"

        def engine(**kwargs: Any) -> Any:
            return lint.LintEngine(rules=lint.build_rules(), **kwargs)

        cold = clock.run(
            "src-cold", lambda: engine(root=REPO, cache_dir=cache_dir).run([self.SOURCES])
        )
        warm = clock.run(
            "src-warm", lambda: engine(root=REPO, cache_dir=cache_dir).run([self.SOURCES])
        )
        cold_op, warm_op = clock.ops
        cold_op.output = {"findings": len(cold.findings)}
        cold_op.invariant_ok = not cold.findings and cold.cache_hits == 0
        warm_op.output = {"findings": len(warm.findings)}
        warm_op.invariant_ok = (
            self._signature(warm) == self._signature(cold)
            and warm.cache_hits == warm.files_scanned == cold.files_scanned
        )
        for corpus in inputs["corpora"]:
            report = clock.run(
                f"acceptance/{corpus}",
                lambda: engine(root=self.FIXTURES).run([self.FIXTURES / "acceptance" / corpus]),
            )
            clock.ops[-1].output = {"findings": len(report.findings)}
            clock.ops[-1].invariant_ok = len(report.findings) == 1
        for family, ids in prepared["families"].items():
            if not ids:
                continue
            report = clock.run(
                f"family/{family}",
                lambda: lint.LintEngine(rules=lint.build_rules(only=ids), root=REPO).run(
                    [self.SOURCES]
                ),
            )
            clock.ops[-1].output = {"findings": len(report.findings)}
            clock.ops[-1].invariant_ok = not report.findings
        wall, host_wall = clock.walls()
        return PassResult(
            ops=clock.ops, wall=wall, host_wall=host_wall, work=cold.files_scanned,
            work_seconds=cold_op.reference_seconds,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Sweep(), NoisySift(), RequestLevel(), LintSrc())
}
