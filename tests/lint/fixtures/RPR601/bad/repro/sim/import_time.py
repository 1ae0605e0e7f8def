"""Known-bad: wall-clock reads that run at import time, or that reach
``time`` through an import placed below the function using it."""
import time

__all__ = ["Stamped", "late"]

STARTED = time.time()


class Stamped:
    created = time.monotonic()


def late():
    return clock.perf_counter()


import time as clock  # noqa: E402
