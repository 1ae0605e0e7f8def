"""Known-bad: unit-suffixed locals read by their suffix."""

__all__ = ["measure", "relabel"]


def measure(size_bytes):
    elapsed_seconds = _opaque(size_bytes)
    return elapsed_seconds + size_bytes


def relabel(size_bytes, other_bytes):
    wait_seconds = size_bytes
    return wait_seconds + other_bytes


def _opaque(value):
    return value.total()
