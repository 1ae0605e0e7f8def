"""Known-bad: unit mixes nested inside tuples and subscripts."""

__all__ = ["spans"]


def spans(latency_seconds, footprint_bytes, table):
    return (latency_seconds + footprint_bytes, table[footprint_bytes - latency_seconds])
