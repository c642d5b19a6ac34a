"""Median and quartiles, as the steadiness check computes them."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of *values*.

    Uses ``statistics.quantiles(values, n=4)`` (the default exclusive
    method); a single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)
