"""The tail percentile rule behind ``op_tail_s``."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples a reported tail must have beyond it


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  Percentiles are nearest
    rank: the i-th smallest of n samples (1-based) is percentile 100 i / n.
    With at most 2 * TAIL_BEYOND samples that rank would fall below the
    median, so the median is reported instead, as percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n // 2
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND
