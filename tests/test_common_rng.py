"""Tests for the deterministic random source."""

import numpy as np
import pytest

from repro.common.rng import RandomSource, derive_seed


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform(0.0, 1.0) for _ in range(10)] == [b.uniform(0.0, 1.0) for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomSource(7)
        b = RandomSource(8)
        assert [a.uniform(0.0, 1.0) for _ in range(10)] != [b.uniform(0.0, 1.0) for _ in range(10)]

    def test_child_streams_are_deterministic(self):
        a = RandomSource(7).child("topology", 3)
        b = RandomSource(7).child("topology", 3)
        assert a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)

    def test_child_streams_are_independent(self):
        a = RandomSource(7).child("topology")
        b = RandomSource(7).child("failures")
        assert [a.uniform(0.0, 1.0) for _ in range(5)] != [b.uniform(0.0, 1.0) for _ in range(5)]

    def test_derive_seed_stable(self):
        assert derive_seed(42, "x", 1) == derive_seed(42, "x", 1)
        assert derive_seed(42, "x", 1) != derive_seed(42, "x", 2)

    def test_seed_property(self):
        assert RandomSource(99).seed == 99

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomSource(1.5)

class TestScalarDraws:
    def test_uniform_respects_bounds(self):
        rng = RandomSource(1)
        for _ in range(100):
            value = rng.uniform(5.0, 6.0)
            assert 5.0 <= value < 6.0

class TestCollectionDraws:
    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(1).choice_index(0)

    def test_choice_index_bounds(self):
        rng = RandomSource(1)
        for _ in range(100):
            assert 0 <= rng.choice_index(7) < 7

    def test_sample_indices_too_many_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(1).sample_indices(3, 4)

    def test_sample_indices_distinct_and_in_range(self):
        picks = RandomSource(1).sample_indices(50, 10)
        assert picks.size == 10
        assert len(set(picks.tolist())) == 10
        assert all(0 <= pick < 50 for pick in picks.tolist())

    def test_sample_indices_of_the_whole_population_is_a_permutation(self):
        assert sorted(RandomSource(2).sample_indices(12, 12).tolist()) == list(range(12))

    def test_sample_indices_is_the_generator_choice_draw(self):
        # Crash victims are drawn through this call, so its stream is the
        # one ``Generator.choice`` without replacement consumes.
        expected = np.random.Generator(np.random.PCG64(3)).choice(40, 7, replace=False)
        assert RandomSource(3).sample_indices(40, 7).tolist() == expected.tolist()
