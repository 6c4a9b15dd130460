"""Tests for the derived aggregates (SUM, PRODUCT, VARIANCE, COUNT, MEAN)."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.core.derived import (
    MeanAggregate,
    NetworkSizeAggregate,
    ProductAggregate,
    SumAggregate,
    VarianceAggregate,
)
from repro.core.functions import VectorFunction


class TestMeanAggregate:
    def test_initial_values_indexed_by_node(self):
        aggregate = MeanAggregate()
        assert aggregate.initial_values([5.0, 7.0]) == {0: 5.0, 1: 7.0}

    def test_finalize_is_identity(self):
        assert MeanAggregate().finalize(4.2) == 4.2

    def test_true_value(self):
        assert MeanAggregate().true_value([2.0, 4.0]) == 3.0


class TestNetworkSizeAggregate:
    def test_initial_values_form_peak(self):
        aggregate = NetworkSizeAggregate()
        values = aggregate.initial_values([0.0] * 4)
        assert values == {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}

    def test_finalize_inverts_estimate(self):
        assert NetworkSizeAggregate().finalize(0.25) == 4.0

    def test_finalize_zero_gives_infinity(self):
        assert NetworkSizeAggregate().finalize(0.0) == math.inf

    def test_true_value_is_population_size(self):
        assert NetworkSizeAggregate().true_value([1.0] * 9) == 9.0


class TestSumAggregate:
    def test_function_is_two_component_vector(self):
        assert isinstance(SumAggregate().function, VectorFunction)
        assert len(SumAggregate().function) == 2

    def test_initial_values_pair_value_with_peak(self):
        aggregate = SumAggregate()
        values = aggregate.initial_values([3.0, 4.0, 5.0])
        assert values[0] == (3.0, 1.0)
        assert values[1] == (4.0, 0.0)

    def test_finalize_multiplies_average_and_size(self):
        # average 6, peak estimate 1/4 -> size 4 -> sum 24
        assert SumAggregate().finalize((6.0, 0.25)) == pytest.approx(24.0)

    def test_finalize_with_zero_peak_is_infinite(self):
        assert SumAggregate().finalize((6.0, 0.0)) == math.inf

    def test_true_value(self):
        assert SumAggregate().true_value([1.0, 2.0, 3.5]) == 6.5


class TestProductAggregate:
    def test_finalize_raises_geometric_mean_to_size(self):
        # geometric mean 2, size 3 -> product 8
        assert ProductAggregate().finalize((2.0, 1.0 / 3.0)) == pytest.approx(8.0)

    def test_finalize_zero_geometric_mean(self):
        assert ProductAggregate().finalize((0.0, 0.5)) == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ProductAggregate().initial_values([1.0, -2.0])

    def test_true_value(self):
        assert ProductAggregate().true_value([2.0, 3.0, 4.0]) == 24.0


class TestVarianceAggregate:
    def test_initial_values_pair_value_and_square(self):
        values = VarianceAggregate().initial_values([3.0, 4.0])
        assert values[0] == (3.0, 9.0)
        assert values[1] == (4.0, 16.0)

    def test_finalize_subtracts_square_of_mean(self):
        assert VarianceAggregate().finalize((3.0, 10.0)) == pytest.approx(1.0)

    def test_finalize_clamps_rounding_noise(self):
        assert VarianceAggregate().finalize((3.0, 9.0 - 1e-15)) == 0.0

    def test_true_value_population_variance(self):
        assert VarianceAggregate().true_value([2.0, 4.0]) == pytest.approx(1.0)

    def test_true_value_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            VarianceAggregate().true_value([])


class TestFinalizeAll:
    def test_finalize_all_applies_to_every_node(self):
        aggregate = NetworkSizeAggregate()
        sizes = aggregate.finalize_all({0: 0.5, 1: 0.25})
        assert sizes == {0: 2.0, 1: 4.0}
