"""Failure-aware percentiles and goodput.

Run with: python3 -m pytest perfbench/tests
"""

import math
import random
import statistics

import _paths  # noqa: F401
import pytest

import scoring


def _pct(times, failed, q):
    value = scoring.failure_aware_percentile(times, failed, q)
    return math.inf if value is None else value


def test_percentiles_without_failures_use_nearest_rank():
    times = [float(t) for t in range(10, 0, -1)]
    ok = [False] * 10
    assert scoring.failure_aware_percentile(times, ok, 50) == 5.0
    assert scoring.failure_aware_percentile(times, ok, 90) == 9.0
    assert scoring.failure_aware_percentile(times, ok, 100) == 10.0


def test_a_failure_ranks_slower_than_every_success():
    # the failure returned sooner than every success, yet it ranks last
    times = [0.001] + [1.0 + i for i in range(9)]
    failed = [True] + [False] * 9
    assert scoring.failure_aware_percentile(times, failed, 90) == 9.0
    assert scoring.failure_aware_percentile(times, failed, 100) is None


def test_percentile_on_a_failure_is_unmet():
    times = [1.0] * 10
    failed = [False] * 8 + [True] * 2
    assert scoring.failure_aware_percentile(times, failed, 50) == 1.0
    assert scoring.failure_aware_percentile(times, failed, 90) is None


def test_turning_a_failure_into_a_success_never_worsens_a_percentile():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 40)
        times = [rng.expovariate(1.0) for _ in range(n)]
        failed = [rng.random() < 0.3 for _ in range(n)]
        for i in (i for i in range(n) if failed[i]):
            fixed = failed[:i] + [False] + failed[i + 1:]
            # the fixed operation may now take longer than it did to fail
            slower = times[:i] + [times[i] * rng.uniform(1, 100)] + times[i + 1:]
            for q in (1, 25, 50, 90, 99, 100):
                assert _pct(slower, fixed, q) <= _pct(times, failed, q)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        scoring.failure_aware_percentile([], [], 50)
    with pytest.raises(ValueError):
        scoring.failure_aware_percentile([1.0], [False], 0)


def test_verdicts_per_s_counts_only_correct_verdicts_over_wall_time():
    assert scoring.verdicts_per_s(30, 10.0) == 3.0
    assert scoring.verdicts_per_s(0, 2.0) == 0.0
    with pytest.raises(ValueError):
        scoring.verdicts_per_s(1, 0.0)


def test_spread_uses_the_quartiles_of_statistics_quantiles():
    values = [1.0, 2.0, 2.5, 3.0, 10.0, 4.0, 2.2]
    q1, med, q3 = statistics.quantiles(values, n=4)
    s = scoring.spread(values)
    assert (s["q1"], s["median"], s["q3"]) == (q1, med, q3)
    assert s["spread"] == pytest.approx((q3 - q1) / med)
