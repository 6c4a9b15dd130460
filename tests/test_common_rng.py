"""Tests for the deterministic random source."""

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

    def test_bernoulli_extremes(self):
        rng = RandomSource(1)
        assert rng.bernoulli(1.0) is True
        assert rng.bernoulli(0.0) is False

    def test_bernoulli_rate_roughly_correct(self):
        rng = RandomSource(1)
        hits = sum(rng.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

class TestCollectionDraws:
    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(1).choice_index(0)

    def test_choice_index_bounds(self):
        rng = RandomSource(1)
        for _ in range(100):
            assert 0 <= rng.choice_index(7) < 7

    def test_sample_distinct(self):
        rng = RandomSource(1)
        sample = rng.sample(list(range(20)), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_sample_too_many_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(1).sample([1, 2, 3], 4)

    def test_shuffle_in_place_preserves_elements(self):
        rng = RandomSource(1)
        items = list(range(30))
        rng.shuffle_in_place(items)
        assert sorted(items) == list(range(30))
