"""Derived aggregates: SUM, PRODUCT, VARIANCE, network size (Section 5).

The paper obtains richer aggregates by composing primitive protocols:

* SUM — run AVERAGE and COUNT concurrently, multiply the results.
* PRODUCT — run GEOMETRICMEAN and COUNT concurrently, raise the geometric
  mean to the N-th power.
* VARIANCE — run AVERAGE over the values and over their squares, report
  ``mean_of_squares − mean²``.
* COUNT (network size) — AVERAGE over the peak distribution, report the
  reciprocal.

Each derived aggregate here packages (a) the vector function whose
components travel together in every exchange, (b) the per-node initial
values, and (c) the ``finalize`` step that turns a converged node state
into the derived quantity, plus the exact ``true_value`` for accuracy
checks in tests and experiments.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Sequence

from ..common.errors import ConfigurationError
from ..common.validation import require_positive
from .count import network_size_from_estimate, peak_initial_values
from .functions import (
    AggregationFunction,
    AverageFunction,
    GeometricMeanFunction,
    VectorFunction,
)

__all__ = [
    "DerivedAggregate",
    "NetworkSizeAggregate",
    "SumAggregate",
    "ProductAggregate",
    "VarianceAggregate",
    "MeanAggregate",
]


class DerivedAggregate(abc.ABC):
    """A post-processed aggregate built on one or more primitive protocols."""

    #: Short machine-readable name used in reports.
    name: str = "derived"

    @property
    @abc.abstractmethod
    def function(self) -> AggregationFunction:
        """The (possibly vector) aggregation function the protocol runs."""

    @abc.abstractmethod
    def initial_values(self, values: Sequence[float]) -> Dict[int, object]:
        """Per-node initial protocol values derived from the local values.

        ``values`` is indexed by node id (node ``i`` holds ``values[i]``).
        """

    @abc.abstractmethod
    def finalize(self, state: object) -> float:
        """Convert one node's converged state into the derived aggregate."""

    @abc.abstractmethod
    def true_value(self, values: Sequence[float]) -> float:
        """The exact answer, for accuracy measurements."""

    def finalize_all(self, states: Dict[int, object]) -> Dict[int, float]:
        """Apply :meth:`finalize` to every node state."""
        return {node: self.finalize(state) for node, state in states.items()}


class MeanAggregate(DerivedAggregate):
    """The arithmetic mean — the primitive AVERAGE protocol, for symmetry."""

    name = "mean"

    def __init__(self) -> None:
        self._function = AverageFunction()

    @property
    def function(self) -> AggregationFunction:
        return self._function

    def initial_values(self, values: Sequence[float]) -> Dict[int, float]:
        return {index: float(value) for index, value in enumerate(values)}

    def finalize(self, state: float) -> float:
        return float(state)

    def true_value(self, values: Sequence[float]) -> float:
        return self._function.true_value(values)


class NetworkSizeAggregate(DerivedAggregate):
    """COUNT: network size from the peak distribution (node 0 holds the peak)."""

    name = "count"

    def __init__(self) -> None:
        self._function = AverageFunction()

    @property
    def function(self) -> AggregationFunction:
        return self._function

    def initial_values(self, values: Sequence[float]) -> Dict[int, float]:
        size = len(values)
        require_positive(size, "number of nodes")
        peaks = peak_initial_values(size)
        return {index: peaks[index] for index in range(size)}

    def finalize(self, state: float) -> float:
        return network_size_from_estimate(float(state))

    def true_value(self, values: Sequence[float]) -> float:
        return float(len(values))


class SumAggregate(DerivedAggregate):
    """SUM = AVERAGE × network size, via two concurrent protocols."""

    name = "sum"

    def __init__(self) -> None:
        self._function = VectorFunction([AverageFunction(), AverageFunction()])

    @property
    def function(self) -> AggregationFunction:
        return self._function

    def initial_values(self, values: Sequence[float]) -> Dict[int, tuple]:
        size = len(values)
        require_positive(size, "number of nodes")
        peaks = peak_initial_values(size)
        return {index: (float(values[index]), peaks[index]) for index in range(size)}

    def finalize(self, state: tuple) -> float:
        average, peak = state
        size = network_size_from_estimate(peak)
        if not math.isfinite(size):
            return math.inf
        return float(average) * size

    def true_value(self, values: Sequence[float]) -> float:
        return float(sum(values))


class ProductAggregate(DerivedAggregate):
    """PRODUCT = GEOMETRICMEAN ^ network size, via two concurrent protocols."""

    name = "product"

    def __init__(self) -> None:
        self._function = VectorFunction([GeometricMeanFunction(), AverageFunction()])

    @property
    def function(self) -> AggregationFunction:
        return self._function

    def initial_values(self, values: Sequence[float]) -> Dict[int, tuple]:
        size = len(values)
        require_positive(size, "number of nodes")
        for value in values:
            if value < 0:
                raise ConfigurationError("PRODUCT requires non-negative local values")
        peaks = peak_initial_values(size)
        return {index: (float(values[index]), peaks[index]) for index in range(size)}

    def finalize(self, state: tuple) -> float:
        geometric_mean, peak = state
        size = network_size_from_estimate(peak)
        if not math.isfinite(size):
            return math.inf
        if geometric_mean == 0.0:
            return 0.0
        return float(geometric_mean) ** size

    def true_value(self, values: Sequence[float]) -> float:
        product = 1.0
        for value in values:
            product *= value
        return float(product)


class VarianceAggregate(DerivedAggregate):
    """VARIANCE = mean of squares − square of mean, via two concurrent protocols."""

    name = "variance"

    def __init__(self) -> None:
        self._function = VectorFunction([AverageFunction(), AverageFunction()])

    @property
    def function(self) -> AggregationFunction:
        return self._function

    def initial_values(self, values: Sequence[float]) -> Dict[int, tuple]:
        return {
            index: (float(value), float(value) ** 2) for index, value in enumerate(values)
        }

    def finalize(self, state: tuple) -> float:
        mean, mean_of_squares = state
        # Guard against tiny negative values produced by floating point
        # round-off once the estimates have fully converged.
        return max(0.0, float(mean_of_squares) - float(mean) ** 2)

    def true_value(self, values: Sequence[float]) -> float:
        if not values:
            raise ConfigurationError("cannot compute the variance of no values")
        mean = sum(values) / len(values)
        return float(sum((value - mean) ** 2 for value in values) / len(values))
