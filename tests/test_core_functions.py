"""Tests for the primitive aggregation functions (the UPDATE step)."""

import math

import numpy as np
import pytest

from repro.common.errors import ProtocolError
from repro.core.functions import (
    AverageFunction,
    GeometricMeanFunction,
    MaxFunction,
    MinFunction,
    PushSumFunction,
    VectorFunction,
)


class TestAverage:
    def test_merge_returns_pair_mean_for_both(self):
        function = AverageFunction()
        assert function.merge(4.0, 10.0) == (7.0, 7.0)

    def test_merge_conserves_sum(self):
        function = AverageFunction()
        a, b = function.merge(3.5, -1.5)
        assert a + b == pytest.approx(3.5 - 1.5)

    def test_initial_state_and_estimate_are_identity(self):
        function = AverageFunction()
        assert function.initial_state(5) == 5.0
        assert function.estimate(5.0) == 5.0

    def test_conserved_quantity_is_sum(self):
        assert AverageFunction().conserved_quantity([1.0, 2.0, 3.0]) == 6.0


class TestMinMax:
    def test_min_merge(self):
        assert MinFunction().merge(4.0, 10.0) == (4.0, 4.0)

    def test_max_merge(self):
        assert MaxFunction().merge(4.0, 10.0) == (10.0, 10.0)

    def test_idempotent_merge(self):
        assert MinFunction().merge(5.0, 5.0) == (5.0, 5.0)


class TestGeometricMean:
    def test_merge_is_sqrt_of_product(self):
        a, b = GeometricMeanFunction().merge(4.0, 9.0)
        assert a == b == pytest.approx(6.0)

    def test_merge_conserves_product(self):
        a, b = GeometricMeanFunction().merge(4.0, 9.0)
        assert a * b == pytest.approx(36.0)

    def test_negative_initial_value_rejected(self):
        with pytest.raises(ProtocolError):
            GeometricMeanFunction().initial_state(-1.0)

    def test_zero_drives_everything_to_zero(self):
        a, b = GeometricMeanFunction().merge(0.0, 100.0)
        assert a == b == 0.0


class TestPushSum:
    def test_initial_state_has_unit_weight(self):
        assert PushSumFunction().initial_state(6.0) == (6.0, 1.0)

    def test_merge_conserves_mass_and_weight(self):
        function = PushSumFunction()
        (vi, wi), (vr, wr) = function.merge((6.0, 1.0), (2.0, 1.0))
        assert vi + vr == pytest.approx(8.0)
        assert wi + wr == pytest.approx(2.0)

    def test_initiator_keeps_half(self):
        function = PushSumFunction()
        (vi, wi), _ = function.merge((6.0, 1.0), (2.0, 1.0))
        assert (vi, wi) == (3.0, 0.5)

    def test_estimate_is_value_over_weight(self):
        assert PushSumFunction().estimate((6.0, 2.0)) == 3.0

    def test_estimate_with_zero_weight_is_none(self):
        assert PushSumFunction().estimate((6.0, 0.0)) is None


class TestVectorFunction:
    def test_requires_components(self):
        with pytest.raises(ProtocolError):
            VectorFunction([])

    def test_broadcast_scalar_initial_value(self):
        vector = VectorFunction([AverageFunction(), MaxFunction()])
        assert vector.initial_state(3.0) == (3.0, 3.0)

    def test_per_component_initial_values(self):
        vector = VectorFunction([AverageFunction(), MaxFunction()])
        assert vector.initial_state((1.0, 2.0)) == (1.0, 2.0)

    def test_wrong_arity_rejected(self):
        vector = VectorFunction([AverageFunction(), MaxFunction()])
        with pytest.raises(ProtocolError):
            vector.initial_state((1.0, 2.0, 3.0))

    def test_merge_applies_each_component(self):
        vector = VectorFunction([AverageFunction(), MaxFunction()])
        new_a, new_b = vector.merge((0.0, 1.0), (10.0, 5.0))
        assert new_a == (5.0, 5.0)
        assert new_b == (5.0, 5.0)

    def test_merge_asymmetric_component(self):
        vector = VectorFunction([PushSumFunction()])
        new_a, new_b = vector.merge(((6.0, 1.0),), ((2.0, 1.0),))
        assert new_a != new_b

    def test_estimates_per_component(self):
        vector = VectorFunction([AverageFunction(), MaxFunction()])
        assert vector.estimates((2.0, 9.0)) == (2.0, 9.0)

    def test_scalar_estimate_is_first_component(self):
        vector = VectorFunction([AverageFunction(), MaxFunction()])
        assert vector.estimate((2.0, 9.0)) == 2.0

    def test_len(self):
        assert len(VectorFunction([AverageFunction()] * 4)) == 4

    def test_merge_arrays_equals_the_per_component_loop(self):
        # merge_arrays fuses runs of same-class flat-codec components into
        # one column block; the per-component loop it replaced is kept here
        # as the reference, bit for bit.
        components = [
            AverageFunction(),
            AverageFunction(),
            GeometricMeanFunction(),
            AverageFunction(),
            MinFunction(),
            MinFunction(),
            PushSumFunction(),
        ]
        vector = VectorFunction(components)
        rng = np.random.default_rng(8)
        initiators = rng.random((64, vector.state_width()))
        responders = rng.random((64, vector.state_width()))
        expected_i = np.empty_like(initiators)
        expected_r = np.empty_like(responders)
        offset = 0
        for function in components:
            columns = slice(offset, offset + function.state_width())
            offset = columns.stop
            expected_i[:, columns], expected_r[:, columns] = function.merge_arrays(
                initiators[:, columns], responders[:, columns]
            )
        new_i, new_r = vector.merge_arrays(initiators, responders)
        assert new_i.tobytes() == expected_i.tobytes()
        assert new_r.tobytes() == expected_r.tobytes()
        # Non-flat components and class changes start a new block.
        assert [
            (type(function).__name__, columns.start, columns.stop)
            for function, columns in vector._merge_blocks
        ] == [
            ("AverageFunction", 0, 2),
            ("GeometricMeanFunction", 2, 3),
            ("AverageFunction", 3, 4),
            ("MinFunction", 4, 6),
            ("PushSumFunction", 6, 8),
        ]
