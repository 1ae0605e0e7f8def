"""Offline Exhaustive Search (Section V of the paper).

"The Offline Exhaustive Search policy chooses the best MTL value based
on off-line runs.  MTL is fixed throughout a program's execution."
This module is that meta-procedure: simulate the program once per
static MTL from 1 to n, keep the fastest.  It doubles as the S-MTL
oracle of the synthetic-sweep experiment (Figure 13), which reports
the best static constraint per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim.machine import Machine, i7_860
from repro.sim.noise import NoiseModel
from repro.sim.results import SimulationResult
from repro.core.policies import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram

__all__ = ["OfflineSearchOutcome", "offline_exhaustive_search"]


@dataclass(frozen=True)
class OfflineSearchOutcome:
    """Result of an offline exhaustive search.

    Attributes:
        best_mtl: The static MTL with the smallest makespan (S-MTL).
        best: The simulation result at ``best_mtl``.
        by_mtl: Every per-MTL result, for speedup curves.
    """

    best_mtl: int
    best: SimulationResult
    by_mtl: Dict[int, SimulationResult]

    def makespan(self, mtl: int) -> float:
        return self.by_mtl[mtl].makespan

    def speedup_over(self, baseline_mtl: int) -> float:
        """Speedup of the best static MTL over another static MTL
        (pass ``n`` for the conventional baseline)."""
        return self.by_mtl[baseline_mtl].makespan / self.best.makespan


def offline_exhaustive_search(
    program: StreamProgram,
    machine: Optional[Machine] = None,
    noise_factory: Optional[Callable[[], NoiseModel]] = None,
) -> OfflineSearchOutcome:
    """Simulate ``program`` at every static MTL and keep the fastest.

    Args:
        program: Stream program to search.
        machine: Target machine (defaults to the 1-DIMM i7-860).
        noise_factory: Called once per run so every run sees an
            identically distributed, independently seeded noise stream
            (pass ``None`` for noise-free runs).
    """
    target = machine if machine is not None else i7_860()
    by_mtl: Dict[int, SimulationResult] = {}
    # Noise-free runs share one simulator, so the rate calculator's
    # snapshot memo stays warm across the whole MTL range; noisy runs
    # each get their own noise stream.  All share the program's graph.
    simulator = Simulator(target)
    for mtl in range(1, target.context_count + 1):
        if noise_factory is not None:
            simulator = Simulator(target, noise=noise_factory())
        by_mtl[mtl] = simulator.run(program, FixedMtlPolicy(mtl))
    best_mtl = min(by_mtl, key=lambda mtl: (by_mtl[mtl].makespan, mtl))
    return OfflineSearchOutcome(
        best_mtl=best_mtl, best=by_mtl[best_mtl], by_mtl=by_mtl
    )
