"""Order statistics used by the benchmark report."""
from __future__ import annotations

import statistics

# A tail percentile is only reported where at least this many samples lie
# beyond it, so that it is not set by one or two outliers.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> dict:
    """Highest percentile that still has TAIL_BEYOND samples above it.

    Returns the order statistic at 1-based rank k = n - TAIL_BEYOND, its
    percentile 100 k / n, and how many samples lie beyond it.  When that
    rank falls below the median (fewer than 2 * TAIL_BEYOND samples) it is
    raised to n // 2 + 1, the first rank at or above the median, so the
    tail never reads lower than the median; ``beyond`` then records the
    shortfall.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return {
        "value": float(ordered[rank - 1]),
        "percentile": 100.0 * rank / n,
        "beyond": n - rank,
        "samples": n,
    }

