"""Tests for the paper's closed-form predictions."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.analysis.theory import (
    PUSH_PULL_CONVERGENCE_FACTOR,
    RANDOM_PAIRWISE_CONVERGENCE_FACTOR,
    crash_variance_prediction,
    exchange_count_pmf,
    expected_exchanges_per_cycle,
    expected_variance_after_cycles,
    is_crash_variance_bounded,
    link_failure_convergence_bound,
    peak_distribution_variance,
)


class TestConstants:
    def test_push_pull_factor_value(self):
        assert PUSH_PULL_CONVERGENCE_FACTOR == pytest.approx(1.0 / (2.0 * math.sqrt(math.e)))
        assert PUSH_PULL_CONVERGENCE_FACTOR == pytest.approx(0.3033, abs=1e-4)

    def test_random_pairwise_factor_value(self):
        assert RANDOM_PAIRWISE_CONVERGENCE_FACTOR == pytest.approx(1.0 / math.e)

    def test_push_pull_is_faster_than_pairwise(self):
        assert PUSH_PULL_CONVERGENCE_FACTOR < RANDOM_PAIRWISE_CONVERGENCE_FACTOR


class TestLinkFailureBound:
    def test_no_failures_gives_one_over_e(self):
        assert link_failure_convergence_bound(0.0) == pytest.approx(1.0 / math.e)

    def test_total_failure_gives_one(self):
        assert link_failure_convergence_bound(1.0) == pytest.approx(1.0)

    def test_monotone_in_pd(self):
        values = [link_failure_convergence_bound(p) for p in (0.0, 0.3, 0.6, 0.9)]
        assert values == sorted(values)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            link_failure_convergence_bound(1.5)


class TestExpectedVariance:
    def test_matches_power_law(self):
        assert expected_variance_after_cycles(8.0, 3, 0.5) == pytest.approx(1.0)

    def test_zero_cycles_is_identity(self):
        assert expected_variance_after_cycles(5.0, 0) == 5.0

    def test_negative_cycles_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_variance_after_cycles(1.0, -1)

    def test_thirty_cycles_reduce_by_many_orders_of_magnitude(self):
        remaining = expected_variance_after_cycles(1.0, 30)
        assert remaining < 1e-15


class TestCrashVariancePrediction:
    def test_zero_crash_probability_gives_zero(self):
        assert crash_variance_prediction(0.0, 1000, 20) == 0.0

    def test_zero_cycles_gives_zero(self):
        assert crash_variance_prediction(0.2, 1000, 0) == 0.0

    def test_increases_with_crash_probability(self):
        low = crash_variance_prediction(0.05, 1000, 20)
        high = crash_variance_prediction(0.3, 1000, 20)
        assert high > low > 0.0

    def test_decreases_with_network_size(self):
        small = crash_variance_prediction(0.1, 100, 20)
        large = crash_variance_prediction(0.1, 10_000, 20)
        assert small > large

    def test_scales_with_initial_variance(self):
        base = crash_variance_prediction(0.1, 1000, 20, initial_variance=1.0)
        double = crash_variance_prediction(0.1, 1000, 20, initial_variance=2.0)
        assert double == pytest.approx(2 * base)

    def test_certain_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            crash_variance_prediction(1.0, 1000, 20)

    def test_paper_scale_magnitude(self):
        """At the paper's N = 10^5 the normalised variance stays below ~2e-5 (Fig. 5)."""
        prediction = crash_variance_prediction(0.3, 100_000, 20)
        assert 1e-6 < prediction < 2e-5

    def test_boundary_ratio_one_uses_limit(self):
        # Choose rho = 1 - Pf so the geometric ratio is exactly 1.
        value = crash_variance_prediction(0.3, 1000, 5, convergence_factor=0.7)
        expected = 0.3 / (1000 * 0.7) * 5
        assert value == pytest.approx(expected)

    def test_boundedness_criterion(self):
        assert is_crash_variance_bounded(0.3)
        assert not is_crash_variance_bounded(0.8)


class TestCostModel:
    def test_expected_exchanges(self):
        assert expected_exchanges_per_cycle() == 2.0

    def test_pmf_sums_to_one(self):
        total = sum(exchange_count_pmf(k) for k in range(1, 40))
        assert total == pytest.approx(1.0)

    def test_pmf_zero_below_one_exchange(self):
        assert exchange_count_pmf(0) == 0.0
        assert exchange_count_pmf(-2) == 0.0

    def test_mode_is_one_or_two(self):
        assert exchange_count_pmf(1) == pytest.approx(exchange_count_pmf(2))
        assert exchange_count_pmf(2) > exchange_count_pmf(3)


class TestPeakDistributionVariance:
    def test_matches_direct_computation(self):
        import numpy as np

        values = [1.0] + [0.0] * 99
        assert peak_distribution_variance(100) == pytest.approx(float(np.var(values, ddof=1)))

    def test_single_node_has_zero_variance(self):
        assert peak_distribution_variance(1) == 0.0

    def test_scales_with_peak_value(self):
        assert peak_distribution_variance(100, peak_value=2.0) == pytest.approx(
            4 * peak_distribution_variance(100, peak_value=1.0)
        )
