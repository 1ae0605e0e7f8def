"""Known-bad: unit mixes in module-level and class-body code."""
from repro.units import MIB, NANOSECONDS

__all__ = ["LIMIT", "Budget"]

LIMIT = 3 * NANOSECONDS + 2 * MIB


class Budget:
    window_seconds = 1.0
    total = window_seconds + 4 * MIB
