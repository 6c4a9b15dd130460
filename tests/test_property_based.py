"""Property-based tests (hypothesis) of the core invariants.

These check the algebraic properties the paper's analysis relies on:
conservation of the global sum/product/mass under complete exchanges,
invariance of extremes under MIN/MAX, the COUNT map merge rules, the
trimmed-mean reduction, and the determinism of the seeded random source.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RandomSource
from repro.core.count import CountArrayFunction
from repro.core.functions import (
    AverageFunction,
    GeometricMeanFunction,
    MaxFunction,
    MinFunction,
    PushSumFunction,
    VectorFunction,
)
from repro.core.instances import trimmed_size_estimates
from repro.newscast.cache import CacheEntry, NewscastCache
from repro.simulator.cycle_sim import CycleSimulator
from repro.topology import TopologySpec, build_overlay

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_values = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestUpdateStepInvariants:
    @given(a=finite_values, b=finite_values)
    def test_average_merge_conserves_sum_and_is_symmetric(self, a, b):
        function = AverageFunction()
        new_a, new_b = function.merge(a, b)
        assert new_a == new_b
        assert new_a + new_b == pytest.approx(a + b, rel=1e-9, abs=1e-9)

    @given(a=finite_values, b=finite_values)
    def test_average_merge_never_leaves_the_interval(self, a, b):
        new_a, _ = AverageFunction().merge(a, b)
        assert min(a, b) - 1e-9 <= new_a <= max(a, b) + 1e-9

    @given(a=finite_values, b=finite_values)
    def test_min_max_merge_returns_an_input(self, a, b):
        low, _ = MinFunction().merge(a, b)
        high, _ = MaxFunction().merge(a, b)
        assert low == min(a, b)
        assert high == max(a, b)

    @given(a=positive_values, b=positive_values)
    def test_geometric_merge_conserves_product(self, a, b):
        new_a, new_b = GeometricMeanFunction().merge(a, b)
        assert new_a * new_b == pytest.approx(a * b, rel=1e-9)

    @given(
        value_a=finite_values,
        value_b=finite_values,
        weight_a=positive_values,
        weight_b=positive_values,
    )
    def test_push_sum_merge_conserves_mass_and_weight(self, value_a, value_b, weight_a, weight_b):
        function = PushSumFunction()
        (va, wa), (vb, wb) = function.merge((value_a, weight_a), (value_b, weight_b))
        assert va + vb == pytest.approx(value_a + value_b, rel=1e-9, abs=1e-9)
        assert wa + wb == pytest.approx(weight_a + weight_b, rel=1e-9, abs=1e-9)

    @given(values=st.lists(finite_values, min_size=2, max_size=8))
    def test_vector_merge_component_wise(self, values):
        vector = VectorFunction([AverageFunction() for _ in values])
        state_a = tuple(values)
        state_b = tuple(reversed(values))
        merged_a, merged_b = vector.merge(state_a, state_b)
        assert merged_a == merged_b
        for index in range(len(values)):
            expected = (state_a[index] + state_b[index]) / 2.0
            assert merged_a[index] == pytest.approx(expected, rel=1e-9, abs=1e-9)


count_maps = st.dictionaries(
    keys=st.integers(min_value=0, max_value=20),
    values=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=6,
)


class TestCountMapInvariants:
    #: The universe holds every key ``count_maps`` draws.
    function = CountArrayFunction(range(21))

    @given(map_a=count_maps, map_b=count_maps)
    def test_merge_conserves_total_mass(self, map_a, map_b):
        merged_a, merged_b = self.function.merge(map_a, map_b)
        before = sum(map_a.values()) + sum(map_b.values())
        after = sum(merged_a.values()) + sum(merged_b.values())
        assert after == pytest.approx(before, rel=1e-9, abs=1e-12)

    @given(map_a=count_maps, map_b=count_maps)
    def test_merge_domain_is_union(self, map_a, map_b):
        merged_a, _ = self.function.merge(map_a, map_b)
        assert set(merged_a) == set(map_a) | set(map_b)

    @given(map_a=count_maps, map_b=count_maps)
    def test_merge_is_commutative(self, map_a, map_b):
        forward, _ = self.function.merge(map_a, map_b)
        backward, _ = self.function.merge(map_b, map_a)
        assert set(forward) == set(backward)
        for key in forward:
            assert forward[key] == pytest.approx(backward[key], rel=1e-12, abs=1e-15)


def trimmed_size(sizes):
    """The trimmed-mean size a node holding one instance per size reports."""
    return float(trimmed_size_estimates([[1.0 / size for size in sizes]])[0])


sizes_lists = st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=30)


class TestTrimmedMeanProperties:
    @given(sizes=sizes_lists)
    def test_result_within_sample_range(self, sizes):
        result = trimmed_size(sizes)
        assert min(sizes) * (1 - 1e-12) <= result <= max(sizes) * (1 + 1e-12)

    @given(sizes=sizes_lists, scalar=st.floats(min_value=0.0, max_value=1e6))
    def test_translation_equivariance(self, sizes, scalar):
        base = trimmed_size(sizes)
        shifted = trimmed_size([size + scalar for size in sizes])
        assert shifted == pytest.approx(base + scalar, rel=1e-6, abs=1e-6)

    @given(
        sizes=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=4, max_size=30),
        outlier=st.floats(min_value=1e8, max_value=1e12),
    )
    def test_single_outlier_is_ignored(self, sizes, outlier):
        clean = trimmed_size(sizes)
        polluted = trimmed_size(sizes + [outlier])
        assert polluted < 1e6
        assert abs(polluted - clean) < 200


class TestNewscastCacheProperties:
    entries = st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.floats(min_value=0, max_value=100, allow_nan=False)),
        max_size=20,
    )

    @given(data_a=entries, data_b=entries, capacity=st.integers(min_value=1, max_value=10))
    def test_merge_respects_capacity_and_excludes_self(self, data_a, data_b, capacity):
        cache_a = NewscastCache(capacity, (CacheEntry(t, p) for p, t in data_a))
        cache_b = NewscastCache(capacity, (CacheEntry(t, p) for p, t in data_b))
        merged = cache_a.merged_with(cache_b, own_id=0, other_id=1, now=200.0)
        assert len(merged) <= capacity
        assert 0 not in merged.peer_ids()
        assert 1 in merged.peer_ids()

    @given(data=entries, capacity=st.integers(min_value=1, max_value=10))
    def test_cache_never_exceeds_capacity(self, data, capacity):
        cache = NewscastCache(capacity)
        for peer, stamp in data:
            cache.insert(CacheEntry(timestamp=stamp, peer_id=peer))
        assert len(cache) <= capacity


class TestSimulationInvariants:
    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        values=st.lists(finite_values, min_size=10, max_size=40),
    )
    def test_sum_conserved_by_lossless_simulation(self, seed, values):
        rng = RandomSource(seed)
        size = len(values)
        overlay = build_overlay(TopologySpec("random", degree=min(4, size - 1)), size, rng.child("t"))
        simulator = CycleSimulator(overlay, AverageFunction(), list(values), rng.child("s"))
        simulator.run(3)
        assert simulator.state_array().sum() == pytest.approx(sum(values), rel=1e-9, abs=1e-6)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_estimates_stay_within_initial_bounds(self, seed):
        rng = RandomSource(seed)
        values = [float(i) for i in range(30)]
        overlay = build_overlay(TopologySpec("random", degree=5), 30, rng.child("t"))
        simulator = CycleSimulator(overlay, AverageFunction(), values, rng.child("s"))
        simulator.run(5)
        for estimate in simulator.state_array()[:, 0]:
            assert min(values) - 1e-9 <= estimate <= max(values) + 1e-9

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_same_seed_reproduces_the_same_trajectory(self, seed):
        def run():
            rng = RandomSource(seed)
            overlay = build_overlay(TopologySpec("random", degree=4), 25, rng.child("t"))
            simulator = CycleSimulator(
                overlay, AverageFunction(), [float(i) for i in range(25)], rng.child("s")
            )
            simulator.run(4)
            return simulator.state_array()

        assert np.array_equal(run(), run())


class TestRandomSourceProperties:
    @given(seed=st.integers(min_value=0, max_value=2**40), labels=st.lists(st.integers(0, 100), max_size=4))
    def test_child_derivation_deterministic(self, seed, labels):
        a = RandomSource(seed).child(*labels)
        b = RandomSource(seed).child(*labels)
        assert a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)

    @given(seed=st.integers(min_value=0, max_value=2**40), count=st.integers(min_value=1, max_value=20))
    def test_sample_indices_distinct_and_in_range(self, seed, count):
        rng = RandomSource(seed)
        population = count + 10
        sample = rng.sample_indices(population, count)
        assert len(set(int(i) for i in sample)) == count
        assert all(0 <= int(i) < population for i in sample)
