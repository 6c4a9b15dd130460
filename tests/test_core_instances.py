"""Tests for the multiple-concurrent-instances robustness technique."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.instances import (
    MultiInstanceCount,
    multi_instance_peak_values,
    reduce_size_estimates,
)


class TestMultiInstancePeakValues:
    def test_each_instance_has_exactly_one_unit_of_mass(self):
        rng = RandomSource(5)
        values, leaders = multi_instance_peak_values(list(range(30)), 4, rng)
        assert len(leaders) == 4
        for instance in range(4):
            total = sum(values[node][instance] for node in range(30))
            assert total == pytest.approx(1.0)

    def test_leaders_hold_the_peak(self):
        rng = RandomSource(5)
        values, leaders = multi_instance_peak_values(list(range(30)), 3, rng)
        for instance, leader in enumerate(leaders):
            assert values[leader][instance] == 1.0

    def test_every_node_gets_a_tuple_of_right_arity(self):
        rng = RandomSource(5)
        values, _ = multi_instance_peak_values(list(range(10)), 7, rng)
        assert all(len(value) == 7 for value in values.values())

    def test_empty_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            multi_instance_peak_values([], 3, RandomSource(1))

    def test_zero_instances_rejected(self):
        with pytest.raises(ConfigurationError):
            multi_instance_peak_values([1, 2], 0, RandomSource(1))


class TestReduceSizeEstimates:
    def test_perfect_estimates(self):
        assert reduce_size_estimates([0.01, 0.01, 0.01]) == pytest.approx(100.0)

    def test_trimming_removes_diverged_instances(self):
        # One instance diverged to infinity (mass lost) and one collapsed.
        estimates = [0.01, 0.01, 0.01, 0.0, 1.0, 0.01]
        reduced = reduce_size_estimates(estimates)
        assert math.isfinite(reduced)
        assert reduced == pytest.approx(100.0, rel=0.2)

    def test_none_estimates_treated_as_infinite(self):
        reduced = reduce_size_estimates([None, 0.01, 0.01, 0.01, 0.01])
        assert math.isfinite(reduced)

    def test_empty_list_is_infinite(self):
        assert reduce_size_estimates([]) == math.inf

    def test_all_diverged_is_infinite(self):
        assert reduce_size_estimates([0.0, 0.0, None]) == math.inf


class TestMultiInstanceCount:
    def test_create_builds_matching_function_and_values(self):
        bundle = MultiInstanceCount.create(list(range(20)), 5, RandomSource(2))
        assert bundle.instance_count == 5
        assert len(bundle.initial_values) == 20
        assert all(len(value) == 5 for value in bundle.initial_values.values())
        assert len(bundle.leaders) == 5

    def test_node_size_estimate_on_converged_state(self):
        bundle = MultiInstanceCount.create(list(range(10)), 3, RandomSource(2))
        converged = tuple(0.1 for _ in range(3))  # 1/N with N=10
        assert bundle.node_size_estimate(converged) == pytest.approx(10.0)

    def test_size_estimates_for_population(self):
        bundle = MultiInstanceCount.create(list(range(10)), 3, RandomSource(2))
        states = {0: (0.1, 0.1, 0.1), 1: (0.2, 0.2, 0.2)}
        estimates = bundle.size_estimates(states)
        assert estimates[0] == pytest.approx(10.0)
        assert estimates[1] == pytest.approx(5.0)
