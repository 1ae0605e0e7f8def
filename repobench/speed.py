"""Host speed probe: rescales host seconds to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed for
this process swings between modes about 1.5x apart, in phases that
last from a fraction of a second to minutes (CPU time equals wall
time throughout, so it is not preemption).  A 30-second run can sit
wholly in one mode, so medians over a run still move 30-40% from run
to run.

The probe is a fixed piece of pure-Python work (dict stores, small
object allocation and method calls, strided list reads), timed as the
best of a few repeats with the garbage collector off, so it depends on
nothing the program under test leaves behind.  The harness probes at
both ends of every op (:func:`boundary`) and, while sampling is on,
every ``SAMPLE_INTERVAL_S`` from a ``SIGALRM`` handler inside the op;
it reports the op at reference speed::

    reference seconds = (host seconds - seconds spent in in-op probes)
                        * REFERENCE_PROBE_S / mean(probes of the op)

The program's own work is never part of a probe, so a change that
makes the program faster shows in full; a host that runs every op
1.5x slower leaves the figures where they were.  Probing only at the
ends is not enough for second-long ops: the host changes mode inside
them.  Over 16 lint passes the per-op CV was 19% in host seconds, 17%
rescaled by the end probes alone and 6% with in-op samples.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List, Tuple

#: Probe time taken as the reference speed: the best-of-repeats probe
#: on a 2-vCPU Xeon container in its fast mode, so reference seconds
#: read close to host seconds on such a host when it runs at full speed.
REFERENCE_PROBE_S = 3.4e-4

REPEATS = 3

#: Seconds between in-op probes while sampling is on.
SAMPLE_INTERVAL_S = 0.05

_TABLE = [((i * 7919) % 4093) * 0.25 for i in range(4096)]


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def step(self, other: "_Pair") -> "_Pair":
        return _Pair(self.x + other.x, self.y * other.y)


def _chunk() -> float:
    table = {}
    total = 0.0
    for i in range(600):
        table[i & 255] = i * 0.5
        total += table[i & 255]
    pair, step = _Pair(1.0, 1.0), _Pair(0.5, 1.000001)
    for _ in range(500):
        pair = pair.step(step)
    values = _TABLE
    for i in range(0, 4096 * 3, 7):
        total += values[i & 4095]
    return total + pair.x


def probe() -> float:
    """Seconds of the reference chunk now: the best of ``REPEATS``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _chunk()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(*probes: float) -> float:
    """Factor from host seconds to reference seconds for an interval
    whose probes (at its ends and inside it) read ``probes``."""
    return len(probes) * REFERENCE_PROBE_S / sum(probes)


#: In-op samples not yet taken: ``(start, end, probe seconds)``.
_samples: List[Tuple[float, float, float]] = []
#: Set while a probe runs or the samples are read, so the handler
#: neither nests in a probe nor changes the list under a reader.
_busy = False
#: The ``SIGALRM`` handler :func:`start_sampling` replaced.
_previous_handler: object = signal.SIG_DFL


def _on_alarm(signum: int, frame: object) -> None:
    global _busy
    if _busy:
        return
    _busy = True
    try:
        start = time.perf_counter()
        probed = probe()
        _samples.append((start, time.perf_counter(), probed))
    finally:
        _busy = False


def start_sampling() -> None:
    """Probes every ``SAMPLE_INTERVAL_S`` until :func:`stop_sampling`."""
    global _previous_handler
    _previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)


def stop_sampling() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    if signal.getsignal(signal.SIGALRM) is _on_alarm:
        signal.signal(signal.SIGALRM, _previous_handler)
    _samples.clear()


def boundary() -> Tuple[float, float, float]:
    """``(time before, probe seconds, time after)`` of one probe that
    no in-op sample interrupts."""
    global _busy
    _busy = True
    try:
        before = time.perf_counter()
        probed = probe()
        return before, probed, time.perf_counter()
    finally:
        _busy = False


def take(start: float, end: float) -> Tuple[List[float], float]:
    """Probes sampled inside ``[start, end]`` and the seconds they took.

    Samples up to ``end`` are dropped, so intervals must be taken in
    time order.
    """
    global _busy
    _busy = True
    try:
        inside = [s for s in _samples if s[0] >= start and s[1] <= end]
        _samples[:] = [s for s in _samples if s[1] > end]
    finally:
        _busy = False
    return [s[2] for s in inside], sum(s[1] - s[0] for s in inside)
