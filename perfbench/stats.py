"""Percentiles by nearest rank, and the tail-percentile rule.

A timing is reported as its median and as the highest percentile that
still has at least ``MIN_BEYOND`` samples above it, so the tail figure
always rests on several observations.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile `p` among `n` samples."""
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p: float, n: int) -> int:
    """Samples strictly above the nearest-rank position of `p`."""
    return n - rank(p, n)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples above it."""
    usable = [p for p in LADDER if beyond(p, n) >= MIN_BEYOND]
    return usable[-1] if usable else None


def summarize_ms(seconds) -> dict:
    """Median, p90 and the tail percentile of durations, in ms."""
    ms = [s * 1e3 for s in seconds]
    tail = tail_percentile(len(ms))
    out = {"count": len(ms), "p50": percentile(ms, 50.0) if ms else None,
           "p90": percentile(ms, 90.0) if ms else None,
           "tail_percentile": tail,
           "tail": percentile(ms, tail) if tail is not None else None}
    return out
