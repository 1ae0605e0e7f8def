"""DRAM device timing parameters.

These parameters feed the detailed bank-level model in
:mod:`repro.memory.dram`.  They are expressed in DRAM clock cycles, the
way datasheets specify them, and converted to seconds through the clock
period.  The presets correspond to the DDR3-1066 DIMMs of the paper's
Dell Vostro 430 testbed (Section V) and, for sensitivity studies, a
faster DDR3-1333 grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.units import NANOSECONDS

__all__ = ["DramTiming", "DDR3_1066", "DDR3_1333"]


@dataclass(frozen=True)
class DramTiming:
    """Timing of one DRAM device grade.

    Attributes:
        clock_period: Duration of one memory clock cycle, in seconds.
            (DDR transfers two beats per cycle; burst lengths below are
            already expressed in clock cycles.)
        t_cl: CAS latency — column access to first data, in cycles.
        t_rcd: RAS-to-CAS delay — activate to column access, in cycles.
        t_rp: Row precharge time, in cycles.
        t_ras: Minimum row-open time (activate to precharge), in cycles.
        t_burst: Data-bus occupancy of one 64-byte burst (BL8 on a
            64-bit channel = 4 clock cycles), in cycles.
        banks_per_rank: Number of banks in each rank.
        ranks_per_channel: Number of ranks sharing a channel.
        row_bytes: Bytes covered by one open row (page size x devices).
    """

    clock_period: float
    t_cl: int
    t_rcd: int
    t_rp: int
    t_ras: int
    t_burst: int
    banks_per_rank: int = 8
    ranks_per_channel: int = 2
    row_bytes: int = 8192

    def __post_init__(self) -> None:
        if self.clock_period <= 0:
            raise ConfigurationError(
                f"clock_period must be positive, got {self.clock_period}"
            )
        for name in ("t_cl", "t_rcd", "t_rp", "t_ras", "t_burst"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.banks_per_rank <= 0 or self.ranks_per_channel <= 0:
            raise ConfigurationError("bank/rank counts must be positive")
        if self.row_bytes <= 0:
            raise ConfigurationError(f"row_bytes must be positive, got {self.row_bytes}")

    def cycles(self, n: int) -> float:
        """Convert ``n`` clock cycles to seconds."""
        return n * self.clock_period

    @property
    def row_hit_latency(self) -> float:
        """Seconds from scheduling a row-hit read to the end of its burst."""
        return self.cycles(self.t_cl + self.t_burst)

    @property
    def row_miss_latency(self) -> float:
        """Seconds for a closed-row access: activate, then column read."""
        return self.cycles(self.t_rcd + self.t_cl + self.t_burst)

    @property
    def row_conflict_latency(self) -> float:
        """Seconds for a row conflict: precharge, activate, column read."""
        return self.cycles(self.t_rp + self.t_rcd + self.t_cl + self.t_burst)

    @cached_property
    def banks_per_channel(self) -> int:
        """Total independently schedulable banks on one channel."""
        return self.banks_per_rank * self.ranks_per_channel


#: DDR3-1066: 533 MHz clock (1.875 ns), 7-7-7-20 grade, as in the paper's
#: single-DIMM 8.5 GB/s configuration.
DDR3_1066 = DramTiming(
    clock_period=1.875 * NANOSECONDS,
    t_cl=7,
    t_rcd=7,
    t_rp=7,
    t_ras=20,
    t_burst=4,
)

#: DDR3-1333: 667 MHz clock (1.5 ns), 9-9-9-24 grade, for sensitivity runs.
DDR3_1333 = DramTiming(
    clock_period=1.5 * NANOSECONDS,
    t_cl=9,
    t_rcd=9,
    t_rp=9,
    t_ras=24,
    t_burst=4,
)
