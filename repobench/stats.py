"""Order statistics the benchmark reports.

Pure functions over lists of floats; no dependency on the program
under test, so the self-tests can pin them exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: ``op_tail_ms`` is taken at the highest percentile that still has at
#: least this many ops above it, so a tail figure always rests on more
#: than a handful of samples.
TAIL_OPS_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, count)`` of the tail statistic.

    With ``n`` values sorted ascending the statistic is the value at
    rank ``n - TAIL_OPS_BEYOND`` (1-based), so exactly
    ``TAIL_OPS_BEYOND`` values lie above it; its percentile is
    ``100 * (n - TAIL_OPS_BEYOND) / n``.

    Raises:
        ValueError: With ``TAIL_OPS_BEYOND`` values or fewer there is no
            such rank.
    """
    n = len(values)
    if n <= TAIL_OPS_BEYOND:
        raise ValueError(
            f"tail needs more than {TAIL_OPS_BEYOND} values, got {n}"
        )
    rank = n - TAIL_OPS_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def passes_per_group(ops_per_pass: int) -> int:
    """Consecutive passes pooled into one group for the tail.

    A group holds at least ``4 * TAIL_OPS_BEYOND`` ops, so the tail is
    at or above the 75th percentile.  The group size depends only on
    the workload, never on how many passes fit in a run, so the tail's
    percentile is the same on every run.
    """
    if ops_per_pass < 1:
        raise ValueError(f"ops_per_pass must be >= 1, got {ops_per_pass}")
    return math.ceil(4 * TAIL_OPS_BEYOND / ops_per_pass)


def _groups(op_seconds_by_pass: Sequence[Sequence[float]]) -> List[List[float]]:
    """Passes pooled in order into groups of :func:`passes_per_group`;
    a trailing incomplete group is left out."""
    size = passes_per_group(len(op_seconds_by_pass[0]))
    groups: List[List[float]] = []
    for start in range(0, len(op_seconds_by_pass) - size + 1, size):
        pooled: List[float] = []
        for ops in op_seconds_by_pass[start : start + size]:
            pooled.extend(ops)
        groups.append(pooled)
    if not groups:
        raise ValueError(
            f"need at least {size} passes per group, got {len(op_seconds_by_pass)}"
        )
    return groups


def per_op_median(op_seconds_by_pass: Sequence[Sequence[float]]) -> float:
    """Median over a pass's ops of each op's median across passes.

    Every pass runs the same ops in the same order, so position ``i``
    is the same op in every pass.  Taking each op's median first keeps
    the statistic on the same op from run to run even when a
    workload's ops fall into clusters of very different cost, where
    the median of pooled op times jumps between clusters with noise.
    """
    count = len(op_seconds_by_pass[0])
    if any(len(ops) != count for ops in op_seconds_by_pass):
        raise ValueError("every pass must have the same ops")
    return statistics.median(
        statistics.median(ops[i] for ops in op_seconds_by_pass) for i in range(count)
    )


def grouped_tail(
    op_seconds_by_pass: Sequence[Sequence[float]],
) -> Tuple[float, float, int]:
    """Median over pass groups of each group's :func:`tail`.

    Returns ``(value, percentile, ops per group)``.
    """
    tails = [tail(group) for group in _groups(op_seconds_by_pass)]
    return (
        statistics.median(value for value, _, _ in tails),
        tails[0][1],
        tails[0][2],
    )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a child lies inside its parent and
    siblings do not overlap; ``parents[i]`` is the index of span
    ``i``'s parent, or ``-1`` for a root.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for child, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[child] - starts[child]
    return own


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
