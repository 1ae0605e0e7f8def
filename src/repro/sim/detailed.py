"""Request-level machine simulation.

The main simulator (:mod:`repro.sim.simulator`) models memory time
through a contention law.  This module removes that abstraction for
validation purposes: every memory task issues its cache-line requests
*individually* into the bank-level FR-FCFS controller
(:class:`~repro.memory.dram.FrFcfsController`), so queueing, row
locality, bank conflicts, and bus serialisation **emerge** from
microarchitectural state instead of being postulated.  The scheduling
side (work queue, MTL token gate, policies, phase barriers) is shared
with the main simulator, so any policy — including the dynamic
throttler — runs unchanged.

Scope: the detailed mode supports pure memory tasks and miss-free
compute tasks on SMT-off machines (the configuration of the paper's
headline experiments).  Those restrictions keep the co-simulation
exact; the rate-based simulator covers the spill/SMT regimes.

Cost: one event per cache line, each a heap push and pop, one address
decode and one bank/bus commit (about 2 us on a 2-vCPU x86-64 host);
scheduling work runs only when a task completes.  A 0.5 MB tile is
8192 events, so use smaller tiles (e.g. 32-64 KiB) for sweeps; the
validation benchmark shows the closed-form and request-level machines
agree on speedups and MTL decisions
(``benchmarks/test_ablation_request_level.py``).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.memory.dram import DramAddress, DramRequest, FrFcfsController
from repro.memory.timing import DDR3_1066, DramTiming
from repro.sim.events import MtlChange, TaskRecord
from repro.sim.noise import NoiseModel, ZeroNoise
from repro.sim.results import SimulationResult
from repro.sim.scheduler import MtlGate, SchedulingPolicy, WorkQueue
from repro.stream.program import StreamProgram
from repro.stream.task import Task
from repro.units import CACHE_LINE_BYTES

__all__ = ["DetailedSimulator"]

#: Hard ceiling on simulated requests per run — one event each; beyond
#: this the run would silently take minutes, so fail loudly instead.
_MAX_TOTAL_REQUESTS = 5_000_000


class _MemoryTaskState:
    """Progress of one in-flight memory task."""

    __slots__ = ("task", "start", "remaining", "next_line",
                 "mtl_at_dispatch", "probe")

    def __init__(self, task: Task, start: float, requests: int,
                 base_line: int, mtl_at_dispatch: int, probe: bool) -> None:
        self.task = task
        self.start = start
        self.remaining = requests
        self.next_line = base_line
        self.mtl_at_dispatch = mtl_at_dispatch
        self.probe = probe


class DetailedSimulator:
    """Co-simulation of CPU scheduling and per-request DRAM timing.

    Args:
        core_count: Physical cores (one context each; SMT excluded).
        timing: DRAM device grade.
        channels: Memory channels.
        noise: Optional noise model applied to compute durations and
            dispatch overhead (memory jitter emerges from the DRAM
            model itself).
    """

    def __init__(
        self,
        core_count: int = 4,
        timing: DramTiming = DDR3_1066,
        channels: int = 1,
        noise: Optional[NoiseModel] = None,
    ) -> None:
        for name, value in (("core_count", core_count), ("channels", channels)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"{name} must be a positive int, got {value!r}"
                )
        self.core_count = core_count
        self.timing = timing
        self.channels = channels
        self.noise: NoiseModel = noise if noise is not None else ZeroNoise()

    def run(self, program: StreamProgram, policy: SchedulingPolicy) -> SimulationResult:
        graph = program.to_task_graph()
        self._validate_graph(graph)

        queue = WorkQueue(graph)
        gate = MtlGate(self._validated_mtl(policy))
        controller = FrFcfsController(timing=self.timing, channels=self.channels)
        decode_line = controller.mapper.decode_line
        commit = controller.commit
        lines_per_region = max(
            self.timing.row_bytes // CACHE_LINE_BYTES * 4,
            max(int(t.memory_requests) for t in graph if t.is_memory) + 1,
        ) if any(t.is_memory for t in graph) else 1

        # Event heap: (time, sequence, kind, context_id).
        events: List[Tuple[float, int, str, int]] = []
        sequence = itertools.count()
        memory_states: Dict[int, _MemoryTaskState] = {}
        compute_running: Dict[int, Tuple[Task, float, int, bool]] = {}
        records: List[TaskRecord] = []
        mtl_changes = [MtlChange(0.0, gate.limit, gate.limit, "initial")]
        region_counter = 0
        now = 0.0

        def dispatch() -> None:
            nonlocal region_counter
            for context_id in range(self.core_count):
                if context_id in memory_states or context_id in compute_running:
                    continue
                task = queue.pop_compute(context_id)
                if task is None and queue.pending_memory > 0 and gate.try_acquire():
                    task = queue.pop_memory()
                    if task is None:  # pragma: no cover
                        gate.release()
                        continue
                    queue.note_memory_ran_on(task, context_id)
                if task is None:
                    continue
                overhead = self.noise.dispatch_overhead()
                probe = policy.is_probing()
                if task.is_memory:
                    requests = max(int(round(task.memory_requests)), 1)
                    line = region_counter * lines_per_region
                    region_counter += 1
                    memory_states[context_id] = _MemoryTaskState(
                        task=task, start=now, requests=requests,
                        base_line=line + 1, mtl_at_dispatch=gate.limit,
                        probe=probe,
                    )
                    address = DramAddress(*decode_line(line))
                    controller.submit(
                        DramRequest(context_id, address, now + overhead)
                    )
                else:
                    duration = (
                        overhead
                        + task.cpu_seconds * self.noise.duration_factor()
                    )
                    compute_running[context_id] = (task, now, gate.limit, probe)
                    heappush(events, (now + duration, next(sequence),
                                      "compute", context_id))

        def complete(task: Task, context_id: int, start: float,
                     mtl: int, probe: bool) -> None:
            record = TaskRecord(
                task_id=task.task_id, kind=task.kind, context_id=context_id,
                core_id=context_id, start=start, end=now,
                mtl_at_dispatch=mtl, phase_index=task.phase_index,
                pair_index=task.pair_index, probe=probe,
            )
            records.append(record)
            queue.mark_complete(task)
            policy.on_task_complete(record, now)

        max_events = _MAX_TOTAL_REQUESTS
        processed = 0
        completed = 0
        total = len(graph)
        # Only a task completion can move the policy's MTL, free a
        # context or release work, so sync, dispatch and drain run
        # after completions only.
        changed = True
        while completed < total:
            if changed:
                changed = False
                mtl = self._validated_mtl(policy)
                if mtl != gate.limit:
                    mtl_changes.append(
                        MtlChange(now, gate.limit, mtl, reason=policy.name)
                    )
                    gate.set_limit(mtl)
                dispatch()
                while controller.pending_count > 0:
                    request, _ = controller.service_one()
                    assert request.completion is not None
                    heappush(events, (request.completion, next(sequence),
                                      "request", request.stream_id))
            if not events:
                raise SimulationError(
                    "detailed simulation wedged: work remains but no "
                    "events are scheduled"
                )
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"detailed simulation exceeded {max_events} events; "
                    "shrink the memory-task footprints"
                )
            time, _, kind, context_id = heappop(events)
            now = time
            if kind == "compute":
                task, start, mtl, probe = compute_running.pop(context_id)
                complete(task, context_id, start, mtl, probe)
            else:
                state = memory_states[context_id]
                state.remaining -= 1
                if state.remaining > 0:
                    # The drain above left the controller queue empty,
                    # so a direct commit equals submit + service_one.
                    line = state.next_line
                    state.next_line = line + 1
                    completion, _ = commit(*decode_line(line), now)
                    heappush(events, (completion, next(sequence),
                                      "request", context_id))
                    continue
                del memory_states[context_id]
                gate.release()
                complete(state.task, context_id, state.start,
                         state.mtl_at_dispatch, state.probe)
            completed += 1
            changed = True

        return SimulationResult(
            program_name=program.name,
            machine_name=(
                f"detailed-{self.core_count}core/{self.channels}ch"
            ),
            policy_name=policy.name,
            context_count=self.core_count,
            records=tuple(records),
            mtl_changes=tuple(mtl_changes),
        )

    def _validate_graph(self, graph) -> None:
        total_requests = 0
        for task in graph:
            if task.is_memory and task.cpu_seconds > 0:
                raise ConfigurationError(
                    f"detailed mode needs pure memory tasks; "
                    f"{task.task_id!r} carries CPU work"
                )
            if task.is_compute and task.memory_requests > 0:
                raise ConfigurationError(
                    f"detailed mode needs miss-free compute tasks; "
                    f"{task.task_id!r} carries spill traffic (use the "
                    "rate-based simulator for the over-footprint regime)"
                )
            if task.is_memory:
                total_requests += int(round(task.memory_requests))
        if total_requests > _MAX_TOTAL_REQUESTS:
            raise ConfigurationError(
                f"program would issue {total_requests} requests "
                f"(> {_MAX_TOTAL_REQUESTS}); shrink footprints for the "
                "detailed mode"
            )

    def _validated_mtl(self, policy: SchedulingPolicy) -> int:
        mtl = policy.current_mtl()
        if not 1 <= mtl <= self.core_count:
            raise ConfigurationError(
                f"policy {policy.name!r} requested MTL {mtl}, outside "
                f"[1, {self.core_count}]"
            )
        return mtl
