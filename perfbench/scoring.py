"""End-to-end scores: failure-aware percentiles, goodput and spread.

An operation that failed never produced a verdict, so for the latency
percentiles it ranks as slower than every success (+inf). Turning a failure
into a success can then only lower, never raise, any percentile. The
percentiles are taken over all of a run's operations at once, so a failure is
never dropped by a reduction over parts of the run.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence


def failure_aware_percentile(
    times: Sequence[float], failed: Sequence[bool], q: float
) -> Optional[float]:
    """Nearest-rank q-th percentile (0 < q <= 100) with failures at +inf.

    Returns None when the percentile lands on a failure (it is unmet).
    """
    if not times or len(times) != len(failed):
        raise ValueError("need one failure flag per operation time")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ranked = sorted(math.inf if bad else t for t, bad in zip(times, failed))
    value = ranked[max(0, math.ceil(q / 100.0 * len(ranked)) - 1)]
    return None if math.isinf(value) else value


def verdicts_per_s(correct: int, wall_s: float) -> float:
    """Goodput: correct verdicts per second of run wall time."""
    if wall_s <= 0:
        raise ValueError("wall time must be positive")
    return correct / wall_s


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and interquartile distance as a share of the median,
    with the quartiles of statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else math.inf,
    }
