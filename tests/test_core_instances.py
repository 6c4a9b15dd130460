"""Tests for the multiple-concurrent-instances robustness technique."""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.instances import (
    MultiInstanceCount,
    median_size_estimates,
    multi_instance_peak_values,
    trimmed_size_estimates,
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


class TestTrimmedSizeEstimates:
    def test_perfect_estimates(self):
        assert trimmed_size_estimates([[0.01, 0.01, 0.01]])[0] == pytest.approx(100.0)

    def test_trimming_removes_diverged_instances(self):
        # One instance diverged to infinity (mass lost) and one collapsed.
        block = [[0.01, 0.01, 0.01, 0.0, 1.0, 0.01]]
        reduced = trimmed_size_estimates(block)[0]
        assert math.isfinite(reduced)
        assert reduced == pytest.approx(100.0, rel=0.2)

    def test_none_estimates_treated_as_infinite(self):
        reduced = trimmed_size_estimates([[None, 0.01, 0.01, 0.01, 0.01]])[0]
        assert math.isfinite(reduced)

    def test_no_instances_is_infinite(self):
        assert trimmed_size_estimates(np.empty((1, 0)))[0] == math.inf

    def test_all_diverged_is_infinite(self):
        assert trimmed_size_estimates([[0.0, 0.0, None]])[0] == math.inf

    def test_one_estimate_per_node(self):
        block = [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]
        assert trimmed_size_estimates(block) == pytest.approx([10.0, 5.0])

    def test_block_must_be_two_dimensional(self):
        for reduce in (trimmed_size_estimates, median_size_estimates):
            with pytest.raises(ConfigurationError):
                reduce([0.1, 0.1])


class TestMultiInstanceCount:
    def test_create_builds_matching_function_and_values(self):
        bundle = MultiInstanceCount.create(list(range(20)), 5, RandomSource(2))
        assert bundle.instance_count == 5
        assert len(bundle.initial_values) == 20
        assert all(len(value) == 5 for value in bundle.initial_values.values())
        assert len(bundle.leaders) == 5
