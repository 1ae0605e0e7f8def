"""Task dependency graph.

The main thread of the paper's runtime "enqueues all the memory and
compute tasks into the work queue, and sets up the dependency between
tasks" (Section V).  :class:`TaskGraph` is that dependency structure:
a validated DAG over :class:`~repro.stream.task.Task` objects with the
queries a scheduler needs — which tasks are ready given a completed
set, and a topological order for sequential (functional) execution.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Tuple

from repro.errors import TaskGraphError
from repro.stream.task import Task

__all__ = ["TaskGraph"]


class TaskGraph:
    """A validated DAG of stream tasks.

    Construction validates that task ids are unique, every dependency
    names an existing task, and the graph is acyclic; a malformed graph
    raises :class:`~repro.errors.TaskGraphError` immediately rather
    than failing mid-simulation.

    Dependencies are counted per *join group*: the tasks that share one
    (deduplicated) dependency set all become ready at the same
    completion, so one counter serves the whole group.  A phase barrier
    is therefore one group fed once by each compute task of the phase
    before it — O(tasks) feed entries, not one per (compute, memory)
    pair.  The graph is immutable; each run counts on its own copy of
    :meth:`join_sizes`.
    """

    def __init__(self, tasks: Iterable[Task]) -> None:
        self._tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self._tasks:
                raise TaskGraphError(f"duplicate task id {task.task_id!r}")
            self._tasks[task.task_id] = task
        self._index: Dict[str, int] = {tid: i for i, tid in enumerate(self._tasks)}

        groups: Dict[FrozenSet[str], int] = {}
        members: List[List[Task]] = []
        self._join_sizes: List[int] = []
        feeds: Dict[str, List[int]] = {tid: [] for tid in self._tasks}
        self._roots: List[Task] = []
        for task in self._tasks.values():
            deps = frozenset(task.depends_on)
            if not deps:
                self._roots.append(task)
                continue
            if task.task_id in deps:
                raise TaskGraphError(f"task {task.task_id!r} depends on itself")
            group = groups.get(deps)
            if group is None:
                group = groups[deps] = len(members)
                members.append([])
                self._join_sizes.append(len(deps))
                for dep in dict.fromkeys(task.depends_on):
                    if dep not in feeds:
                        raise TaskGraphError(
                            f"task {task.task_id!r} depends on unknown task {dep!r}"
                        )
                    feeds[dep].append(group)
            members[group].append(task)
        self._members: List[Tuple[Task, ...]] = [tuple(m) for m in members]
        self._feeds: Dict[str, Tuple[int, ...]] = {
            tid: tuple(fed) for tid, fed in feeds.items()
        }
        self._order = self._topological_order()

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task(self, task_id: str) -> Task:
        """Look up a task by id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TaskGraphError(f"unknown task id {task_id!r}") from None

    def dependents(self, task_id: str) -> List[Task]:
        """Tasks that list ``task_id`` as a dependency, in insertion order."""
        try:
            fed = self._feeds[task_id]
        except KeyError:
            raise TaskGraphError(f"unknown task id {task_id!r}") from None
        return sorted(
            (task for group in fed for task in self._members[group]),
            key=self._insertion_index,
        )

    def ready_tasks(self, completed: AbstractSet[str]) -> List[Task]:
        """Tasks whose dependencies are all in ``completed``.

        Already-completed tasks are excluded.  The result preserves
        insertion (enqueue) order, matching the FIFO work queue of the
        paper's runtime.
        """
        ready = []
        for task in self._tasks.values():
            if task.task_id in completed:
                continue
            if all(dep in completed for dep in task.depends_on):
                ready.append(task)
        return ready

    @property
    def feed_count(self) -> int:
        """Task-to-join-group feed entries: the decrements one run's
        completions make in total."""
        return sum(len(fed) for fed in self._feeds.values())

    def join_sizes(self) -> List[int]:
        """Fresh per-group count of outstanding dependencies (a new
        list each call; :meth:`release` decrements the caller's copy)."""
        return list(self._join_sizes)

    def release(self, task_id: str, remaining: List[int]) -> Tuple[Task, ...]:
        """Count the completion of ``task_id`` against ``remaining`` (a
        :meth:`join_sizes` copy) and return the tasks it makes ready, in
        insertion order — the order per-task counting produces.
        """
        ready: Tuple[Task, ...] = ()
        for group in self._feeds[task_id]:
            count = remaining[group] - 1
            remaining[group] = count
            if not count:
                members = self._members[group]
                if ready:
                    members = tuple(
                        sorted(ready + members, key=self._insertion_index)
                    )
                ready = members
        return ready

    def root_tasks(self) -> List[Task]:
        """Dependency-free tasks in topological (enqueue) order.

        The returned list is shared — callers must not mutate it.
        """
        return self._roots

    def topological_order(self) -> List[Task]:
        """Tasks in an order consistent with all dependencies."""
        return list(self._order)

    def _insertion_index(self, task: Task) -> int:
        return self._index[task.task_id]

    def _topological_order(self) -> List[Task]:
        # Kahn's algorithm with a FIFO queue: ``order`` is the queue,
        # and the loop visits the tasks it appends.
        remaining = self.join_sizes()
        order: List[Task] = list(self._roots)
        for task in order:
            order.extend(self.release(task.task_id, remaining))
        if len(order) != len(self._tasks):
            done = {task.task_id for task in order}
            stuck = sorted(tid for tid in self._tasks if tid not in done)
            raise TaskGraphError(f"dependency cycle involving tasks {stuck}")
        return order

    def critical_path_ids(self) -> List[str]:
        """Longest dependency chain, by task count.

        Useful for diagnosing workloads whose parallelism is too
        shallow to benefit from throttling.
        """
        depth: Dict[str, int] = {}
        parent: Dict[str, str] = {}
        for task in self._order:
            best_dep = None
            best = 0
            for dep in task.depends_on:
                if depth[dep] >= best:
                    best = depth[dep]
                    best_dep = dep
            depth[task.task_id] = best + 1
            if best_dep is not None:
                parent[task.task_id] = best_dep
        if not depth:
            return []
        tail = max(depth, key=lambda tid: depth[tid])
        path = [tail]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        path.reverse()
        return path
