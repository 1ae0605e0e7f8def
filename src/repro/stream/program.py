"""Phased stream programs.

A :class:`StreamProgram` is the unit the experiments run: an ordered
sequence of :class:`ProgramPhase` objects, each holding ``t``
independent memory/compute task pairs (Figure 3(b) of the paper).
Phases model the structure of real workloads — SIFT, for instance, is
a sequence of parallel functions with very different memory-to-compute
ratios (Table III), and each function is one phase.  A barrier
separates phases: no task of phase ``i+1`` may start before every task
of phase ``i`` completes, which is how ``pthread_join``-style parallel
sections behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, WorkloadError
from repro.stream.graph import TaskGraph
from repro.stream.task import Task, TaskPair, compute_task, memory_task

__all__ = ["ProgramPhase", "StreamProgram", "build_phase"]


@dataclass(frozen=True)
class ProgramPhase:
    """One parallel section: ``t`` independent task pairs.

    Attributes:
        name: Human-readable phase name (e.g. ``"ECONVOLVE"``).
        pairs: The phase's task pairs; all memory tasks are mutually
            independent, and each compute task depends only on its
            memory task (plus the implicit phase barrier).
    """

    name: str
    pairs: Tuple[TaskPair, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("phase name must be non-empty")
        if not self.pairs:
            raise ConfigurationError(f"phase {self.name!r} has no task pairs")

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    def mean_memory_requests(self) -> float:
        return sum(p.memory.memory_requests for p in self.pairs) / len(self.pairs)

    def mean_compute_seconds(self) -> float:
        return sum(p.compute.cpu_seconds for p in self.pairs) / len(self.pairs)

    def memory_to_compute_ratio(self, request_latency: float) -> float:
        """``T_m1 / T_c`` of this phase at a given solo request latency.

        This is the workload characteristic the paper tabulates
        (Tables II and III) and the throttler monitors.
        """
        t_c = self.mean_compute_seconds()
        if t_c <= 0:
            raise WorkloadError(
                f"phase {self.name!r} has zero compute time; the ratio is undefined"
            )
        return self.mean_memory_requests() * request_latency / t_c


class StreamProgram:
    """An ordered sequence of phases forming one application.

    Immutable: ``name`` and ``phases`` are read-only, so the task graph
    is a pure function of the program, built on the first
    :meth:`to_task_graph` call and shared by every later one.
    """

    __slots__ = ("_name", "_phases", "_graph")

    def __init__(self, name: str, phases: Sequence[ProgramPhase]) -> None:
        if not name:
            raise ConfigurationError("program name must be non-empty")
        if not phases:
            raise ConfigurationError(f"program {name!r} has no phases")
        self._name = name
        self._phases: Tuple[ProgramPhase, ...] = tuple(phases)
        self._graph: Optional[TaskGraph] = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def phases(self) -> Tuple[ProgramPhase, ...]:
        return self._phases

    @property
    def total_pairs(self) -> int:
        return sum(phase.pair_count for phase in self.phases)

    def all_pairs(self) -> List[TaskPair]:
        return [pair for phase in self.phases for pair in phase.pairs]

    def to_task_graph(self) -> TaskGraph:
        """Flatten into a validated task graph with phase barriers
        (built on the first call; every call returns the same object).

        The barrier is encoded by making every memory task of phase
        ``i+1`` depend on every compute task of phase ``i``; this is
        exactly the join semantics of consecutive parallel sections,
        and the graph counts it as one join group.
        """
        if self._graph is not None:
            return self._graph
        tasks: List[Task] = []
        previous_compute_ids: Tuple[str, ...] = ()
        for phase in self.phases:
            current_compute_ids: List[str] = []
            for pair in phase.pairs:
                barrier_deps = tuple(previous_compute_ids) + pair.memory.depends_on
                gated_memory = Task(
                    task_id=pair.memory.task_id,
                    kind=pair.memory.kind,
                    cpu_seconds=pair.memory.cpu_seconds,
                    memory_requests=pair.memory.memory_requests,
                    footprint_bytes=pair.memory.footprint_bytes,
                    pair_index=pair.memory.pair_index,
                    phase_index=pair.memory.phase_index,
                    depends_on=barrier_deps,
                )
                tasks.append(gated_memory)
                tasks.append(pair.compute)
                current_compute_ids.append(pair.compute.task_id)
            previous_compute_ids = tuple(current_compute_ids)
        self._graph = TaskGraph(tasks)
        return self._graph


def build_phase(
    name: str,
    phase_index: int,
    pair_count: int,
    requests_per_memory_task: float,
    compute_seconds_per_task: float,
    footprint_bytes: int = 0,
    compute_spill_requests: float = 0.0,
) -> ProgramPhase:
    """Construct a phase of ``pair_count`` equally-sized task pairs.

    This is the "equally-sized and cache-friendly" decomposition the
    paper's stream rewriting produces (Section I); all memory tasks of
    the phase are identical, as are all compute tasks.
    """
    if pair_count <= 0:
        raise ConfigurationError(f"pair_count must be positive, got {pair_count}")
    pairs: List[TaskPair] = []
    for i in range(pair_count):
        memory_id = f"M[{phase_index}.{i}]"
        compute_id = f"C[{phase_index}.{i}]"
        mem = memory_task(
            memory_id,
            requests=requests_per_memory_task,
            footprint_bytes=footprint_bytes,
            pair_index=i,
            phase_index=phase_index,
        )
        comp = compute_task(
            compute_id,
            cpu_seconds=compute_seconds_per_task,
            spilled_requests=compute_spill_requests,
            footprint_bytes=footprint_bytes,
            pair_index=i,
            phase_index=phase_index,
            depends_on=(memory_id,),
        )
        pairs.append(TaskPair(memory=mem, compute=comp))
    return ProgramPhase(name=name, pairs=tuple(pairs))
