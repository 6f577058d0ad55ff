"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

TAIL_MIN_BEYOND = 10


def nearest_rank(values, p: float) -> tuple[float, int]:
    """The p-th percentile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the latency tail.

    The highest percentile with ``TAIL_MIN_BEYOND`` samples beyond it:
    100 * (n - TAIL_MIN_BEYOND) / n.  It follows the sample count, which
    drifts by a third with host speed, smoothly; fixed rungs (p50, p75,
    ...) would make the tail jump from run to run.  With fewer than twice
    that many samples the median is reported, with its smaller count beyond.
    """
    n = len(values)
    chosen = max(50.0, 100.0 * (n - TAIL_MIN_BEYOND) / n)
    value, beyond = nearest_rank(values, chosen)
    return chosen, value, beyond
