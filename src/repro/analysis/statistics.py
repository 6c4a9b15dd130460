"""Robust statistics used to post-process aggregation outputs.

The paper combines the outputs of multiple concurrent aggregation
instances with a symmetric trimmed mean (drop the lowest and highest
thirds, average the rest).  This module provides that reducer along with a
few companions used by the experiment harness and the ablation benchmarks
(median, plain mean with infinities filtered, relative error helpers).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..common.errors import ConfigurationError
from ..core.count import TRIM_FRACTION

__all__ = [
    "trimmed_mean",
    "median",
    "finite_mean",
    "relative_error",
]


def trimmed_mean(values: Sequence[float]) -> float:
    """Symmetric trimmed mean: drop ``⌊n/3⌋`` values from each end, average the rest.

    Infinite values are allowed in the input: they sort to the extremes and
    are the first to be trimmed, which is exactly why the paper's reducer
    is robust to instances whose estimate diverged.  If everything that
    remains after trimming is non-finite, ``inf`` is returned.

    The trimmed share is :data:`~repro.core.count.TRIM_FRACTION`, the
    paper's thirds.  ``values`` must be non-empty.
    """
    if not values:
        raise ConfigurationError("cannot reduce an empty sample")
    ordered = sorted(values)
    drop = int(len(ordered) * TRIM_FRACTION)
    kept = ordered[drop: len(ordered) - drop]
    finite = [value for value in kept if math.isfinite(value)]
    if not finite:
        return math.inf
    return float(sum(finite) / len(finite))


def median(values: Sequence[float]) -> float:
    """The median of a sample (infinities participate in the ordering)."""
    if not values:
        raise ConfigurationError("cannot take the median of an empty sample")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return float(ordered[middle])
    low, high = ordered[middle - 1], ordered[middle]
    if math.isinf(low) or math.isinf(high):
        return float(low) if low == high else math.inf
    return float((low + high) / 2.0)


def finite_mean(values: Sequence[float]) -> float:
    """Mean over the finite entries of a sample (``inf`` if none are finite)."""
    finite = [value for value in values if math.isfinite(value)]
    if not finite:
        return math.inf
    return float(sum(finite) / len(finite))


def relative_error(estimate: float, true_value: float) -> float:
    """``|estimate − true| / |true|`` with sensible handling of degenerate cases."""
    if not math.isfinite(estimate):
        return math.inf
    if true_value == 0.0:
        return abs(estimate)
    return abs(estimate - true_value) / abs(true_value)
