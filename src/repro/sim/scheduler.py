"""Work queue, MTL gate, and the scheduling-policy protocol.

This module is the simulated counterpart of the paper's application-
level runtime (Section V): the main thread enqueues all memory and
compute tasks with their dependencies into a work queue; child threads
(hardware contexts here) dequeue tasks; "a lock and a counter are used
to reinforce MTL restriction".  The lock-and-counter is the
:class:`MtlGate`; the queue is :class:`WorkQueue`; policies — the
paper's dynamic throttler and its baselines — plug in through
:class:`SchedulingPolicy`.  The static policies themselves
(:class:`~repro.core.policies.FixedMtlPolicy`,
:func:`~repro.core.policies.conventional_policy`) now live with the
rest of the policy plugins in :mod:`repro.core.policies` and are
re-exported here for compatibility.

Dispatch preference follows Section III: a context that cannot acquire
an MTL token "does not have to stall if it has compute work to do", so
ready compute tasks are always dispatchable; compute tasks prefer the
context that gathered their data (cache affinity, matching the paper's
thread pinning).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.core.policies import FixedMtlPolicy, conventional_policy
from repro.errors import ConfigurationError, SchedulingError
from repro.sim.events import TaskRecord
from repro.stream.graph import TaskGraph
from repro.stream.task import Task

__all__ = [
    "SchedulingPolicy",
    "FixedMtlPolicy",
    "conventional_policy",
    "MtlGate",
    "WorkQueue",
]


@runtime_checkable
class SchedulingPolicy(Protocol):
    """Protocol every scheduling policy implements.

    The simulator queries :meth:`current_mtl` at every dispatch and
    feeds every completion to :meth:`on_task_complete`; a policy
    changes the throttle simply by returning a different value from
    :meth:`current_mtl` afterwards.
    """

    @property
    def name(self) -> str:
        """Short policy name used in reports."""

    def current_mtl(self) -> int:
        """The MTL constraint in force right now."""

    def on_task_complete(self, record: TaskRecord, now: float) -> None:
        """Observe a completed task (the policy's monitoring hook)."""

    def is_probing(self) -> bool:
        """Whether dispatched tasks currently belong to a monitoring
        window (recorded on :class:`TaskRecord.probe` for overhead
        accounting)."""


class MtlGate:
    """The lock-and-counter enforcing the MTL restriction.

    Tokens are acquired when a memory task is dispatched and released
    when it completes.  Lowering the limit below the in-use count does
    not preempt running memory tasks (neither does the paper's
    runtime); it only blocks new acquisitions until tasks drain.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"MTL limit must be >= 1, got {limit}")
        self._limit = limit
        self._in_use = 0

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> bool:
        """Whether :meth:`try_acquire` would currently grant a token.

        A failed ``try_acquire`` has no side effects, so dispatchers
        may consult this first and skip the whole memory-dispatch
        attempt while the gate is saturated (the cohort-batched loop
        does, once per scan, instead of one failed acquire per idle
        context)."""
        return self._in_use < self._limit

    def set_limit(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"MTL limit must be >= 1, got {limit}")
        self._limit = limit

    def try_acquire(self) -> bool:
        if self._in_use < self._limit:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SchedulingError("MTL gate released more tokens than acquired")
        self._in_use -= 1


class WorkQueue:
    """FIFO work queue over a task graph, split by task kind.

    Tracks one dependency count per join group of the graph (see
    :class:`~repro.stream.graph.TaskGraph`) and surfaces ready tasks in
    enqueue order, with a cache-affinity fast path for compute tasks: a
    context preferentially picks the compute task whose memory task it
    ran itself, since that data sits in its cache slice.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self._graph = graph
        self._release = graph.release
        #: this run's outstanding-dependency count per join group
        self._remaining: List[int] = graph.join_sizes()
        self._ready_memory: Deque[Task] = deque()
        self._ready_compute: Deque[Task] = deque()
        self._completed: set = set()
        self._dispatched: set = set()
        #: pair key -> context that ran the pair's memory task
        self._affinity: Dict[Tuple[int, int], int] = {}
        #: context -> number of pair keys it currently owns; an exact
        #: mirror of ``_affinity`` so :meth:`pop_compute` can skip the
        #: ready-queue scan for contexts that own no claim at all.
        self._affinity_counts: Dict[int, int] = {}

        # Dependency-free tasks enqueue in topological order — the
        # same order the per-task scan this replaces produced.
        for task in graph.root_tasks():
            self._enqueue(task)

    def _enqueue(self, task: Task) -> None:
        if task.is_memory:
            self._ready_memory.append(task)
        else:
            self._ready_compute.append(task)

    @property
    def pending_memory(self) -> int:
        return len(self._ready_memory)

    @property
    def pending_compute(self) -> int:
        return len(self._ready_compute)

    @property
    def completed_count(self) -> int:
        return len(self._completed)

    def exhausted(self) -> bool:
        """All tasks completed."""
        return len(self._completed) == len(self._graph)

    def has_ready_work(self) -> bool:
        return bool(self._ready_memory or self._ready_compute)

    def pop_compute(self, context_id: int) -> Optional[Task]:
        """Dequeue a ready compute task, preferring cache affinity."""
        ready = self._ready_compute
        if not ready:
            return None
        if self._affinity_counts.get(context_id):
            affinity = self._affinity
            for index, task in enumerate(ready):
                if affinity.get((task.phase_index, task.pair_index)) == context_id:
                    del ready[index]
                    self._dispatched.add(task.task_id)
                    return task
        task = ready.popleft()
        self._dispatched.add(task.task_id)
        return task

    def pop_memory(self) -> Optional[Task]:
        """Dequeue the oldest ready memory task."""
        if not self._ready_memory:
            return None
        task = self._ready_memory.popleft()
        self._dispatched.add(task.task_id)
        return task

    def try_dispatch_memory(self, gate: "MtlGate", context_id: int) -> Optional[Task]:
        """Fused memory dispatch: the pending check, gate acquisition,
        dequeue, and affinity note of a successful
        ``pop_memory`` + ``note_memory_ran_on`` sequence in one call.

        Exactly equivalent to the unfused sequence (same checks, same
        order, token released on no other path), but the event loop
        pays one method call instead of four-plus per memory dispatch.
        Callers that consult a ``blocks_context`` veto must keep using
        the unfused path so the plugin sees every attempt.
        """
        if not self._ready_memory:
            return None
        if not gate.try_acquire():
            return None
        task = self._ready_memory.popleft()
        self._dispatched.add(task.task_id)
        key = (task.phase_index, task.pair_index)
        previous = self._affinity.get(key)
        if previous != context_id:
            counts = self._affinity_counts
            if previous is not None:
                counts[previous] -= 1
            self._affinity[key] = context_id
            counts[context_id] = counts.get(context_id, 0) + 1
        return task

    def note_memory_ran_on(self, task: Task, context_id: int) -> None:
        """Record affinity for the pair's upcoming compute task."""
        key = (task.phase_index, task.pair_index)
        previous = self._affinity.get(key)
        if previous == context_id:
            return
        if previous is not None:
            self._affinity_counts[previous] -= 1
        self._affinity[key] = context_id
        self._affinity_counts[context_id] = (
            self._affinity_counts.get(context_id, 0) + 1
        )

    def mark_complete(self, task: Task) -> Tuple[Task, ...]:
        """Mark a task complete; returns tasks that just became ready."""
        task_id = task.task_id
        if task_id in self._completed:
            raise SchedulingError(f"task {task_id!r} completed twice")
        if task_id not in self._dispatched:
            raise SchedulingError(
                f"task {task_id!r} completed without being dispatched"
            )
        self._completed.add(task_id)
        newly_ready = self._release(task_id, self._remaining)
        for dependent in newly_ready:
            # _enqueue, inlined: this runs once per task per run.
            if dependent.is_memory:
                self._ready_memory.append(dependent)
            else:
                self._ready_compute.append(dependent)
        return newly_ready
