"""Percentiles, spreads and the two-set comparison rule."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def beyond(values, q: float) -> int:
    """How many of ``values`` lie beyond the lower of the two samples
    their ``q``-quantile interpolates between."""
    return len(values) - 1 - math.floor((len(values) - 1) * q)


def percentile(values, q: float, min_beyond: int = MIN_BEYOND):
    """Linearly interpolated ``q``-quantile of ``values``, or None when
    fewer than ``min_beyond`` samples lie beyond it."""
    if not values or beyond(values, q) < min_beyond:
        return None
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def invalid(parent_runs, change_runs):
    """Why two sets of runs of one workload cannot be compared, or None.

    A run that was not correct measured wrong outputs; a change whose
    item calls fail more often than the parent's may be fast only
    because it skips work."""
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        wrong = sum(not run["correct"] for run in runs)
        if wrong:
            return f"{wrong} incorrect {side} run(s)"
    parent_rate, change_rate = (
        sum(run["failed"] for run in runs)
        / sum(run["attempted"] for run in runs)
        for runs in (parent_runs, change_runs))
    if change_rate > parent_rate:
        return (f"failed item calls {parent_rate:.2%} in the parent, "
                f"{change_rate:.2%} in the change")
    return None


def verdict(parent, change, better: str, bound: float) -> tuple[str, float]:
    """Compare two sets of runs of one metric.

    Returns the verdict and the change of the median, signed so that a
    positive value is worse.  ``unresolved`` means a side's quartile
    spread is wider than ``bound`` -- unless every run of ``change``
    reads better than every run of ``parent``.
    """
    sign = 1 if better == "lower" else -1
    base = quartiles(parent)[1]
    worse = sign * (quartiles(change)[1] - base) / base
    if max(spread(parent), spread(change)) > bound:
        best_parent = min(parent) if better == "lower" else max(parent)
        all_better = all(sign * (value - best_parent) < 0
                         for value in change)
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse
