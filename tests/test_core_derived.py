"""Tests for the aggregate table: Section 5's derived aggregates."""

import math
import statistics

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.protocol import AGGREGATES

VALUES = np.array([1.0, 2.0, 4.0, 8.0])

#: A converged state row for VALUES, built by hand: every AVERAGE component
#: holds its column's mean (the peak column 1/N), MIN/MAX the extreme and
#: GEOMETRIC MEAN the geometric mean.
CONVERGED = {
    "average": [3.75],
    "count": [0.25],
    "sum": [3.75, 0.25],
    "product": [2.0 ** 1.5, 0.25],
    "variance": [3.75, 85.0 / 4],
    "min": [1.0],
    "max": [8.0],
    "geometric-mean": [2.0 ** 1.5],
}

#: An independent reference for every exact value.
ORACLES = {
    "average": statistics.fmean,
    "count": len,
    "sum": math.fsum,
    "product": math.prod,
    "variance": statistics.pvariance,
    "min": min,
    "max": max,
    "geometric-mean": statistics.geometric_mean,
}


def test_every_aggregate_has_a_converged_row():
    assert set(CONVERGED) == set(ORACLES) == set(AGGREGATES)


@pytest.mark.parametrize("name", sorted(AGGREGATES))
def test_exact_value_matches_the_standard_library(name):
    values = np.random.default_rng(7).uniform(0.5, 2.0, 200)
    expected = ORACLES[name](values.tolist())
    assert AGGREGATES[name].exact(values) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(AGGREGATES))
def test_finalize_of_converged_row_is_exact(name):
    record = AGGREGATES[name]
    row = np.array([CONVERGED[name]])
    assert record.function.initial_state_array(record.initial(VALUES)).shape == (
        VALUES.size, record.function.state_width(),
    )
    assert record.finalize(row)[0] == pytest.approx(record.exact(VALUES), rel=1e-12)


@pytest.mark.parametrize(
    "name, row, expected",
    [
        ("count", [0.0], math.inf),
        ("sum", [6.0, 0.0], math.inf),
        ("sum", [0.0, 0.0], math.inf),
        ("product", [0.0, 0.5], 0.0),
        ("product", [3.0, 1.0 / 700], math.inf),
        ("variance", [3.0, 9.0 - 1e-15], 0.0),
    ],
)
def test_finalize_edges(name, row, expected):
    assert AGGREGATES[name].finalize(np.array([row]))[0] == expected


def test_count_and_sum_start_from_the_peak():
    assert AGGREGATES["count"].initial(VALUES).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert AGGREGATES["sum"].initial(VALUES)[:, 1].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_geometric_mean_exact_value_survives_product_overflow():
    values = np.full(1000, 1e10)
    assert AGGREGATES["geometric-mean"].exact(values) == pytest.approx(1e10, rel=1e-12)
    assert AGGREGATES["product"].exact(values) == math.inf


@pytest.mark.parametrize("name", ["product", "geometric-mean"])
def test_negative_values_rejected(name):
    with pytest.raises(ConfigurationError):
        AGGREGATES[name].initial(np.array([1.0, -2.0]))
    with pytest.raises(ConfigurationError):
        AGGREGATES[name].exact(np.array([1.0, -2.0]))
