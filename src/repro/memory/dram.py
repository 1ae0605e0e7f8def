"""Bank-level DRAM timing simulator.

The analytical model of the paper rests on one microarchitectural
assumption (Section IV-C): the average memory-task latency under an
MTL of ``b`` decomposes as ``T_ml + b * T_ql`` — contention adds a
queueing term *linear* in the number of concurrent streaming tasks.
The paper validates this on a real Nehalem; a reproduction without the
hardware needs its own evidence, which this module provides.

It simulates ``s`` concurrent streaming agents (one per memory task)
issuing sequential 64-byte reads from disjoint address regions into a
DDR3 memory system with channels, ranks, and banks.  The controller
implements FR-FCFS (row hits first, then oldest).  Banks prepare rows
in parallel; the channel data bus serialises bursts; row conflicts pay
precharge + activate and respect ``tRAS``.

:func:`measure_latency_curve` sweeps the number of agents and reports
the mean per-request latency at each concurrency, which the ablation
benchmark fits against the linear law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.memory.timing import DDR3_1066, DramTiming
from repro.units import CACHE_LINE_BYTES, MIB

__all__ = [
    "DramAddress",
    "AddressMapper",
    "DramRequest",
    "DramStats",
    "DramSimulator",
    "FrFcfsController",
    "measure_latency_curve",
]


@dataclass(frozen=True)
class DramAddress:
    """Decoded location of one cache line in the memory system."""

    channel: int
    bank: int  # flat bank index within the channel (rank folded in)
    row: int


@dataclass(frozen=True)
class AddressMapper:
    """Physical-address to (channel, bank, row) decoder.

    Uses the mapping common to stream-friendly controllers: cache lines
    interleave across channels at line granularity; within a channel,
    consecutive lines fill a row, rows interleave across banks.  A
    sequential stream therefore enjoys long row-hit runs while distinct
    streams (different regions) land on different rows and collide on
    banks only occasionally.
    """

    timing: DramTiming
    channels: int = 1

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {self.channels}")

    #: Fibonacci-hash multiplier used to spread row runs across banks.
    #: A plain ``row_run % banks`` mapping sends power-of-two-aligned
    #: buffers (exactly what distinct stream regions are) to the same
    #: bank, which no real controller tolerates; address-bit hashing is
    #: the standard fix.
    _BANK_HASH_MULTIPLIER = 2654435761

    @cached_property
    def lines_per_row(self) -> int:
        return self.timing.row_bytes // CACHE_LINE_BYTES

    def decode(self, byte_address: int) -> DramAddress:
        """Decode a byte address into a :class:`DramAddress`."""
        if byte_address < 0:
            raise ConfigurationError(
                f"byte_address must be non-negative, got {byte_address}"
            )
        return DramAddress(*self.decode_line(byte_address // CACHE_LINE_BYTES))

    def decode_line(self, line: int) -> Tuple[int, int, int]:
        """Decode a cache-line index into ``(channel, bank, row)``."""
        channels = self.channels
        row_run = line // channels // self.lines_per_row
        banks = self.timing.banks_per_channel
        hashed = (row_run * self._BANK_HASH_MULTIPLIER) >> 12
        return line % channels, hashed % banks, row_run // banks


@dataclass
class DramRequest:
    """One outstanding 64-byte read."""

    stream_id: int
    address: DramAddress
    arrival: float
    completion: Optional[float] = None

    @property
    def latency(self) -> float:
        if self.completion is None:
            raise SimulationError("request has not completed")
        return self.completion - self.arrival


@dataclass(frozen=True)
class DramStats:
    """Aggregate results of one simulation run."""

    mean_latency: float
    max_latency: float
    row_hit_rate: float
    total_time: float
    requests: int

    @property
    def bandwidth_bytes_per_second(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.requests * CACHE_LINE_BYTES / self.total_time


class DramSimulator:
    """FR-FCFS DRAM controller simulation for streaming agents.

    Args:
        timing: DRAM device grade (defaults to the paper's DDR3-1066).
        channels: Independent channels (1 for the paper's 1-DIMM
            configuration, 2 for the 2-DIMM scalability study).
        stream_region_bytes: Size of the disjoint region each stream
            walks; streams start ``stream_region_bytes`` apart so their
            rows differ, as separate stream buffers would.
    """

    def __init__(
        self,
        timing: DramTiming = DDR3_1066,
        channels: int = 1,
        stream_region_bytes: int = 4 * MIB,
    ) -> None:
        if channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {channels}")
        if stream_region_bytes < CACHE_LINE_BYTES:
            raise ConfigurationError(
                "stream_region_bytes must hold at least one line, got "
                f"{stream_region_bytes}"
            )
        self.timing = timing
        self.channels = channels
        self.stream_region_bytes = stream_region_bytes
        self.mapper = AddressMapper(timing=timing, channels=channels)

    def run(self, streams: int, requests_per_stream: int) -> DramStats:
        """Simulate ``streams`` agents each reading sequentially.

        Each agent keeps exactly one request outstanding (the paper's
        memory tasks walk arrays with software prefetch, which behaves
        like a short dependent chain per task) and issues the next
        request the moment the previous one completes.
        """
        if streams < 1:
            raise ConfigurationError(f"streams must be >= 1, got {streams}")
        if requests_per_stream < 1:
            raise ConfigurationError(
                f"requests_per_stream must be >= 1, got {requests_per_stream}"
            )

        controller = FrFcfsController(timing=self.timing, channels=self.channels)
        next_line: List[int] = [
            s * self.stream_region_bytes // CACHE_LINE_BYTES for s in range(streams)
        ]
        remaining = [requests_per_stream] * streams
        decode_line = self.mapper.decode_line

        def issue(stream: int, arrival: float) -> None:
            line = next_line[stream]
            next_line[stream] = line + 1
            address = DramAddress(*decode_line(line))
            controller.submit(DramRequest(stream, address, arrival))

        for s in range(streams):
            issue(s, 0.0)

        completed: List[DramRequest] = []
        total = streams * requests_per_stream
        while len(completed) < total:
            request, _ = controller.service_one()
            completed.append(request)
            stream = request.stream_id
            remaining[stream] -= 1
            if remaining[stream] > 0:
                assert request.completion is not None
                issue(stream, request.completion)

        mean_latency = sum(r.latency for r in completed) / total
        max_latency = max(r.latency for r in completed)
        finish = max(r.completion for r in completed if r.completion is not None)
        return DramStats(
            mean_latency=mean_latency,
            max_latency=max_latency,
            row_hit_rate=controller.row_hits / total,
            total_time=finish,
            requests=total,
        )


class FrFcfsController:
    """Incremental FR-FCFS memory controller.

    Holds the bank/bus state and a pending-request queue; every
    :meth:`service_one` call picks the highest-priority pending
    request (row hits first among the earliest-startable, oldest
    otherwise, with an age cap against starvation), commits its
    timing against the bank and channel-bus state, and returns it with
    its absolute completion time filled in.

    Used in batch mode by :class:`DramSimulator` and incrementally by
    the request-level machine simulator
    (:mod:`repro.sim.detailed`), which co-simulates CPU scheduling
    with this controller.
    """

    def __init__(self, timing: DramTiming = DDR3_1066, channels: int = 1) -> None:
        if channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {channels}")
        self.timing = timing
        self.channels = channels
        self.mapper = AddressMapper(timing=timing, channels=channels)
        # Per channel, indexed by bank: when the bank can next start a
        # request, its open row, and when that row was activated.
        banks = timing.banks_per_channel
        self._bank_ready = [[0.0] * banks for _ in range(channels)]
        self._open_row: List[List[Optional[int]]] = [
            [None] * banks for _ in range(channels)
        ]
        self._activated = [[0.0] * banks for _ in range(channels)]
        self._bus_free = [0.0] * channels
        # Timing constants in seconds; a sum of parameters is taken in
        # cycles before converting (``cycles(t_rcd + t_cl)``).
        self._t_cl = timing.cycles(timing.t_cl)
        self._t_rcd_cl = timing.cycles(timing.t_rcd + timing.t_cl)
        self._t_ras = timing.cycles(timing.t_ras)
        self._t_rp = timing.cycles(timing.t_rp)
        self._t_burst = timing.cycles(timing.t_burst)
        # Age cap: pure hit-first FR-FCFS lets a sequential stream
        # monopolise its open row indefinitely; controllers bound the
        # wait, after which the oldest request wins unconditionally.
        self._starvation_threshold = 32 * timing.row_conflict_latency
        self._pending: List[DramRequest] = []
        self.serviced = 0
        self.row_hits = 0

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def submit(self, request: DramRequest) -> None:
        """Queue one request for service."""
        self._pending.append(request)

    def service_one(self) -> Tuple[DramRequest, bool]:
        """Pick and complete one request under FR-FCFS.

        Among the pending requests able to start earliest, row hits win
        unless some request has waited past the age cap, then the
        oldest arrival, then the earliest submitted.
        """
        pending = self._pending
        if len(pending) == 1:
            chosen = pending.pop()
        elif pending:
            chosen = pending.pop(self._choose())
        else:
            raise SimulationError("no pending requests to service")
        address = chosen.address
        chosen.completion, was_hit = self.commit(
            address.channel, address.bank, address.row, chosen.arrival
        )
        return chosen, was_hit

    def _choose(self) -> int:
        """Index of the winner; only requests startable earliest compete."""
        pending = self._pending
        earliest = oldest = math.inf
        best = best_hit = -1
        for index, request in enumerate(pending):
            address, arrival = request.address, request.arrival
            ready = self._bank_ready[address.channel][address.bank]
            start = max(arrival, ready)
            oldest = min(oldest, arrival)
            if start > earliest:
                continue
            is_hit = self._open_row[address.channel][address.bank] == address.row
            if start < earliest:
                earliest, best, best_hit = start, index, -1
            elif arrival < pending[best].arrival:
                best = index
            if is_hit and (best_hit < 0 or arrival < pending[best_hit].arrival):
                best_hit = index
        if best_hit < 0 or earliest - oldest > self._starvation_threshold:
            return best
        return best_hit

    def commit(
        self, channel: int, bank: int, row: int, arrival: float
    ) -> Tuple[float, bool]:
        """Serve one request at ``arrival`` on the bank/bus state and
        return ``(completion, was_hit)`` — the one timing path.  With
        nothing pending this equals ``submit`` then ``service_one``.
        """
        bank_ready = self._bank_ready[channel]
        open_row = self._open_row[channel]
        ready = bank_ready[bank]
        start = ready if ready > arrival else arrival
        current = open_row[bank]
        was_hit = current == row
        if was_hit:
            data_ready = start + self._t_cl
            self.row_hits += 1
        elif current is None:
            self._activated[channel][bank] = start
            data_ready = start + self._t_rcd_cl
        else:
            # Row conflict: precharge may not begin before tRAS elapses
            # from the activate that opened the current row.
            activated = self._activated[channel]
            ras_end = activated[bank] + self._t_ras
            precharge = ras_end if ras_end > start else start
            activated[bank] = precharge + self._t_rp
            data_ready = activated[bank] + self._t_rcd_cl
        bus_free = self._bus_free[channel]
        completion = (bus_free if bus_free > data_ready else data_ready) + self._t_burst
        self._bus_free[channel] = completion
        bank_ready[bank] = completion
        open_row[bank] = row
        self.serviced += 1
        return completion, was_hit


def measure_latency_curve(
    concurrencies: Sequence[int],
    requests_per_stream: int = 2048,
    timing: DramTiming = DDR3_1066,
    channels: int = 1,
) -> Dict[int, DramStats]:
    """Mean request latency as a function of stream concurrency.

    This is the curve the ablation benchmark fits against the paper's
    linear law ``L(c) = T_ml + c * T_ql``.
    """
    results: Dict[int, DramStats] = {}
    simulator = DramSimulator(timing=timing, channels=channels)
    for c in concurrencies:
        results[c] = simulator.run(streams=c, requests_per_stream=requests_per_stream)
    return results
