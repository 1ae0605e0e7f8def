"""Join-group dependency counting against a per-task reference.

:class:`~repro.sim.scheduler.WorkQueue` keeps one counter per join
group (tasks sharing one deduplicated dependency set) instead of one
per task.  Hypothesis drives it and a plain per-task dependency-count
queue through the same random dispatch/completion sequences over
random DAGs; both must release the same tasks in the same order and
agree on the pending counts at every step.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.sim.scheduler import WorkQueue
from repro.stream.graph import TaskGraph
from repro.stream.task import compute_task, memory_task
from repro.workloads import sift
from repro.workloads.streamcluster import StreamclusterWorkload


class PerTaskQueue:
    """Reference: one dependency count per task, FIFO per kind."""

    def __init__(self, tasks):
        self.remaining = {t.task_id: len(t.depends_on) for t in tasks}
        self.dependents = {t.task_id: [] for t in tasks}
        for task in tasks:
            for dep in task.depends_on:
                self.dependents[dep].append(task)
        self.ready = {True: deque(), False: deque()}
        for task in tasks:
            if not task.depends_on:
                self.ready[task.is_memory].append(task)

    def pop(self, memory):
        return self.ready[memory].popleft()

    def complete(self, task_id):
        newly_ready = []
        for dependent in self.dependents[task_id]:
            self.remaining[dependent.task_id] -= 1
            if self.remaining[dependent.task_id] == 0:
                self.ready[dependent.is_memory].append(dependent)
                newly_ready.append(dependent)
        return newly_ready


@st.composite
def random_dags(draw):
    """Phased pair programs with barriers, extra cross-phase edges and
    duplicate dependency entries, inserted in a shuffled order."""
    tasks = []
    barrier = ()
    for phase in range(draw(st.integers(min_value=1, max_value=4))):
        earlier = [t.task_id for t in tasks]
        computes = []
        for pair in range(draw(st.integers(min_value=1, max_value=6))):
            extra = []
            if earlier:  # cross-phase edges to any earlier task
                extra = draw(st.lists(st.sampled_from(earlier), max_size=3))
            memory_deps = barrier + tuple(extra)
            if memory_deps and draw(st.booleans()):
                memory_deps += (memory_deps[0],)  # duplicate entry
            memory_id = f"M[{phase}.{pair}]"
            tasks.append(
                memory_task(
                    memory_id, requests=10, pair_index=pair, phase_index=phase,
                    depends_on=memory_deps,
                )
            )
            computes.append(
                compute_task(
                    f"C[{phase}.{pair}]", cpu_seconds=1e-4, pair_index=pair,
                    phase_index=phase, depends_on=(memory_id,),
                )
            )
        tasks.extend(computes)
        if draw(st.booleans()):
            barrier = tuple(c.task_id for c in computes)
    return draw(st.permutations(tasks))


def drive(tasks, data):
    """Run a random valid schedule through both queues, comparing them."""
    queue = WorkQueue(TaskGraph(tasks))
    reference = PerTaskQueue(tasks)
    in_flight = []
    while not queue.exhausted():
        assert queue.pending_memory == len(reference.ready[True])
        assert queue.pending_compute == len(reference.ready[False])
        moves = [
            move
            for move, available in (
                ("memory", queue.pending_memory),
                ("compute", queue.pending_compute),
                ("complete", len(in_flight)),
            )
            if available
        ]
        move = data.draw(st.sampled_from(moves))
        if move == "complete":
            task = in_flight.pop(data.draw(st.integers(0, len(in_flight) - 1)))
            released = queue.mark_complete(task)
            assert list(released) == reference.complete(task.task_id)
        else:
            memory = move == "memory"
            task = queue.pop_memory() if memory else queue.pop_compute(0)
            assert task == reference.pop(memory)
            in_flight.append(task)
    assert not in_flight and not queue.has_ready_work()
    assert queue.completed_count == len(tasks)


@settings(max_examples=150, deadline=None)
@given(tasks=random_dags(), data=st.data())
def test_property_join_groups_match_per_task_counting(tasks, data):
    drive(tasks, data)


def test_one_completion_releasing_several_groups_merges_insertion_order():
    x = memory_task("X", requests=1)
    y = memory_task("Y", requests=1)
    a = compute_task("A", cpu_seconds=1e-4, depends_on=("X", "Y"))
    b = compute_task("B", cpu_seconds=1e-4, depends_on=("Y",))
    c = compute_task("C", cpu_seconds=1e-4, depends_on=("Y", "X", "Y"))
    graph = TaskGraph([x, y, a, b, c])
    # {X, Y} is one group (A and C, despite order and duplicates).
    assert graph.feed_count == 3
    queue = WorkQueue(graph)
    assert list(queue.mark_complete(queue.pop_memory())) == []
    released = queue.mark_complete(queue.pop_memory())
    assert [t.task_id for t in released] == ["A", "B", "C"]
    assert [t.task_id for t in graph.dependents("Y")] == ["A", "B", "C"]


def dependency_entries(graph):
    return sum(len(task.depends_on) for task in graph)


def test_sift_feed_entries_are_linear_in_tasks():
    graph = sift().to_task_graph()
    assert dependency_entries(graph) > 30 * len(graph)  # pairs^2 encoding
    assert graph.feed_count < len(graph)


def test_power7_streamcluster_feed_entries_are_linear_in_tasks():
    program = StreamclusterWorkload(rounds=3, pairs_per_round=512).build()
    graph = program.to_task_graph()
    assert dependency_entries(graph) > 100 * len(graph)
    assert graph.feed_count < len(graph)
