"""Tests for the robust statistics helpers."""

import math

import pytest

from repro.analysis.statistics import (
    finite_mean,
    median,
    relative_error,
    trimmed_mean,
)
from repro.common.errors import ConfigurationError


class TestTrimmedMean:
    def test_plain_mean_when_nothing_trimmed(self):
        # Below three values a third of the sample is less than one value.
        assert trimmed_mean([1.0, 3.0]) == 2.0

    def test_paper_third_trimming(self):
        values = [0.0, 10.0, 10.0, 10.0, 10.0, 1000.0]
        assert trimmed_mean(values) == 10.0

    def test_infinities_are_trimmed_first(self):
        values = [math.inf, 10.0, 10.0, 10.0, 10.0, -math.inf]
        assert trimmed_mean(values) == 10.0

    def test_all_infinite_returns_inf(self):
        assert trimmed_mean([math.inf, math.inf, math.inf]) == math.inf

    def test_single_value(self):
        assert trimmed_mean([7.0]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            trimmed_mean([])

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 100.0]
        assert trimmed_mean(values) == trimmed_mean(sorted(values))


class TestMedian:
    def test_odd_length(self):
        assert median([5.0, 1.0, 3.0]) == 3.0

    def test_even_length(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_with_infinities(self):
        assert median([1.0, 2.0, 3.0, math.inf, math.inf]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            median([])


class TestFiniteMean:
    def test_ignores_infinities(self):
        assert finite_mean([1.0, 3.0, math.inf]) == 2.0

    def test_all_infinite(self):
        assert finite_mean([math.inf]) == math.inf


class TestRelativeError:
    def test_simple(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)

    def test_infinite_estimate(self):
        assert relative_error(math.inf, 100.0) == math.inf

    def test_zero_truth(self):
        assert relative_error(0.5, 0.0) == 0.5
