"""The benchmark's own arithmetic: percentiles, the tail rule, spreads.

Kept free of any simulator import so its tests run in milliseconds.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence

#: percentiles the tail rule may pick from, lowest first
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: a percentile is only reported as "the tail" when at least this many
#: samples lie beyond it
TAIL_MIN_BEYOND = 10

#: stand-in for a percentile that lands on a failed call: failures count
#: as missing every latency limit, and JSON has no infinity
MISSED = 1e9


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100).

    ``values`` may hold ``math.inf`` for failed samples; a percentile
    that lands on one returns ``math.inf``.  Empty input returns NaN.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples
    (the tolerance keeps 99.9 % of 10000 at rank 9990, not 9991)."""
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    return n - rank(n, p)


def tail_percentile(n: int, ladder: Iterable[float] = TAIL_LADDER,
                    min_beyond: int = TAIL_MIN_BEYOND) -> Optional[float]:
    """The highest percentile in ``ladder`` with ``min_beyond`` samples
    beyond it, or None when even the lowest rung has too few."""
    best = None
    for p in ladder:
        if beyond(n, p) >= min_beyond:
            best = p
    return best


def finite(value: float) -> float:
    """``value`` made JSON-safe: a missed (infinite) percentile reads
    :data:`MISSED`, an undefined one (no samples) reads 0."""
    if math.isnan(value):
        return 0.0
    if math.isinf(value):
        return MISSED
    return value


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the gate's
    steadiness figure), with quartiles as ``statistics.quantiles`` gives
    them."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def fmt_percentile(p: Optional[float]) -> str:
    if p is None:
        return "none"
    return f"p{p:g}"


def latencies(durations: List[float], failures: int) -> List[float]:
    """Completed durations plus one infinite sample per failure."""
    return list(durations) + [math.inf] * failures
