"""The flat-state FR-FCFS controller against a frozen reference.

:class:`ReferenceController` is the earlier object-per-bank controller
kept verbatim as an oracle: per-bank state objects, two priority
closures and a ``min`` over the whole pending list on every call.
Hypothesis feeds both controllers the same random request batches
(1-8 pending at a time, tied arrivals, rows that hit, miss and
conflict, arrival spreads wide enough to trip the starvation cap) and
they must serve the same requests in the same order with bitwise-equal
completions.  The request-level simulator built on the controller is
pinned separately, at exact makespans recorded from the reference.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DynamicThrottlingPolicy
from repro.errors import SimulationError
from repro.memory.dram import DramAddress, DramRequest, FrFcfsController
from repro.memory.timing import DDR3_1066, DDR3_1333
from repro.sim.detailed import DetailedSimulator
from repro.sim.noise import GaussianNoise
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.stream.program import StreamProgram, build_phase


@dataclass
class _BankState:
    ready_time: float = 0.0
    open_row: Optional[int] = None
    activate_time: float = 0.0


@dataclass
class _ChannelState:
    bus_free_time: float = 0.0
    banks: List[_BankState] = field(default_factory=list)


class ReferenceController:
    """The object-per-bank FR-FCFS controller, frozen as the oracle."""

    def __init__(self, timing, channels):
        self.timing = timing
        self._channel_states = [
            _ChannelState(
                banks=[_BankState() for _ in range(timing.banks_per_channel)]
            )
            for _ in range(channels)
        ]
        self._pending = []
        self.serviced = 0
        self.row_hits = 0
        self.starved_picks = 0

    def submit(self, request):
        self._pending.append(request)

    def service_one(self):
        pending = self._pending
        channel_states = self._channel_states

        def feasible_start(req):
            channel = channel_states[req.address.channel]
            bank = channel.banks[req.address.bank]
            return max(req.arrival, bank.ready_time)

        earliest = min(feasible_start(r) for r in pending)
        starvation_threshold = 32 * self.timing.row_conflict_latency
        starving = any(
            earliest - r.arrival > starvation_threshold for r in pending
        )
        self.starved_picks += starving

        def priority(req):
            start = feasible_start(req)
            channel = channel_states[req.address.channel]
            bank = channel.banks[req.address.bank]
            is_hit = bank.open_row == req.address.row
            startable_now = 0 if start <= earliest else 1
            hit_rank = 0 if (is_hit and not starving) else 1
            return (startable_now, hit_rank, req.arrival)

        chosen = min(pending, key=priority)
        pending.remove(chosen)

        timing = self.timing
        channel = channel_states[chosen.address.channel]
        bank = channel.banks[chosen.address.bank]
        start = max(chosen.arrival, bank.ready_time)
        was_hit = bank.open_row == chosen.address.row
        if was_hit:
            data_ready = start + timing.cycles(timing.t_cl)
        elif bank.open_row is None:
            bank.activate_time = start
            data_ready = start + timing.cycles(timing.t_rcd + timing.t_cl)
        else:
            precharge_start = max(
                start, bank.activate_time + timing.cycles(timing.t_ras)
            )
            bank.activate_time = precharge_start + timing.cycles(timing.t_rp)
            data_ready = bank.activate_time + timing.cycles(
                timing.t_rcd + timing.t_cl
            )
        burst_start = max(data_ready, channel.bus_free_time)
        completion = burst_start + timing.cycles(timing.t_burst)
        channel.bus_free_time = completion
        bank.ready_time = completion
        bank.open_row = chosen.address.row
        chosen.completion = completion
        self.serviced += 1
        if was_hit:
            self.row_hits += 1
        return chosen, was_hit


#: Arrival grid step: 41 steps span ~2.7 starvation thresholds at
#: DDR3-1066 (32 x 46.875 ns = 1.5 us), and the coarse grid makes
#: arrival ties common.
_ARRIVAL_STEP = 100e-9


@st.composite
def scenarios(draw):
    """A timing grade, a channel count, and a schedule of steps; each
    step submits a batch (keeping at most 8 pending) and then serves
    some of the pending requests.  Whatever is left is drained."""
    timing = draw(st.sampled_from([DDR3_1066, DDR3_1333]))
    channels = draw(st.integers(min_value=1, max_value=2))
    banks = draw(st.integers(min_value=1, max_value=timing.banks_per_channel))
    steps = []
    pending = 0
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        size = draw(st.integers(min_value=0 if pending else 1, max_value=8 - pending))
        batch = [
            (
                draw(st.integers(min_value=0, max_value=channels - 1)),
                draw(st.integers(min_value=0, max_value=banks - 1)),
                draw(st.integers(min_value=0, max_value=2)),
                draw(st.integers(min_value=0, max_value=40)) * _ARRIVAL_STEP,
            )
            for _ in range(size)
        ]
        pending += size
        serve = draw(st.integers(min_value=1, max_value=pending))
        pending -= serve
        steps.append((batch, serve))
    return timing, channels, steps


def _replay(controller, steps):
    """Drive one controller through ``steps``; return what it served."""
    served = []
    stream = 0

    def serve_one():
        request, was_hit = controller.service_one()
        served.append((request.stream_id, request.completion.hex(), was_hit))

    for batch, serve in steps:
        for channel, bank, row, arrival in batch:
            controller.submit(
                DramRequest(stream, DramAddress(channel, bank, row), arrival)
            )
            stream += 1
        for _ in range(serve):
            serve_one()
    while len(served) < stream:
        serve_one()
    return served


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_same_order_completions_and_hits(self, scenario):
        timing, channels, steps = scenario
        reference = ReferenceController(timing, channels)
        controller = FrFcfsController(timing=timing, channels=channels)
        assert _replay(controller, steps) == _replay(reference, steps)
        assert controller.serviced == reference.serviced
        assert controller.row_hits == reference.row_hits
        assert controller.pending_count == 0

    def test_starvation_cap_overrides_a_row_hit(self):
        # Open row 0 on bank 0 far in the future, then queue a young
        # row hit beside an old row conflict on the same bank: the old
        # request has waited past the cap, so it must win.
        steps = [
            ([(0, 0, 0, 4e-6)], 1),
            ([(0, 0, 1, 0.0), (0, 0, 0, 3e-6)], 2),
        ]
        reference = ReferenceController(DDR3_1066, 1)
        served = _replay(reference, steps)
        assert reference.starved_picks == 1
        assert [stream for stream, _, _ in served] == [0, 1, 2]
        controller = FrFcfsController(timing=DDR3_1066, channels=1)
        assert _replay(controller, steps) == served

    def test_row_hit_wins_without_starvation(self):
        steps = [
            ([(0, 0, 0, 0.0)], 1),
            ([(0, 0, 1, 0.0), (0, 0, 0, 1e-9)], 2),
        ]
        reference = ReferenceController(DDR3_1066, 1)
        served = _replay(reference, steps)
        assert reference.starved_picks == 0
        assert [stream for stream, _, _ in served] == [0, 2, 1]
        controller = FrFcfsController(timing=DDR3_1066, channels=1)
        assert _replay(controller, steps) == served

    def test_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            FrFcfsController().service_one()


#: Makespans recorded from the object-per-bank controller and the
#: scan-every-event simulator loop, as ``float.hex``.
_PINNED_MAKESPANS = {
    (1, "fixed", False): "0x1.7c111d89a8cbep-14",
    (1, "fixed", True): "0x1.dfcdfce15e934p-14",
    (1, "conventional", False): "0x1.8b7f24a34d6cep-14",
    (1, "conventional", True): "0x1.ec79648b88fc6p-14",
    (1, "dynamic", False): "0x1.bff7a740f731fp-14",
    (1, "dynamic", True): "0x1.117ea4bf63233p-13",
    (2, "fixed", False): "0x1.7bb684b6de8abp-14",
    (2, "fixed", True): "0x1.de87d6b753521p-14",
    (2, "conventional", False): "0x1.53526278703b7p-14",
    (2, "conventional", True): "0x1.b8da50b491b08p-14",
    (2, "dynamic", False): "0x1.b34c482d157e3p-14",
    (2, "dynamic", True): "0x1.0afeade424fb6p-13",
}

_POLICIES = {
    "fixed": lambda: FixedMtlPolicy(2),
    "conventional": lambda: conventional_policy(4),
    "dynamic": lambda: DynamicThrottlingPolicy(context_count=4, window_pairs=4),
}


@pytest.mark.parametrize("channels, policy, noisy", sorted(_PINNED_MAKESPANS))
def test_detailed_makespans_pinned(channels, policy, noisy):
    program = StreamProgram(
        "grid", [build_phase(f"p{i}", i, 12, 256, 8e-6) for i in range(2)]
    )
    noise = GaussianNoise(seed=1, sigma=0.03) if noisy else None
    result = DetailedSimulator(channels=channels, noise=noise).run(
        program, _POLICIES[policy]()
    )
    assert result.makespan.hex() == _PINNED_MAKESPANS[channels, policy, noisy]
