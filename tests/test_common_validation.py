"""Tests for the validation helpers and error hierarchy."""

import numpy as np
import pytest

from repro.common.errors import (
    ConfigurationError,
    ExperimentError,
    MembershipError,
    ProtocolError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.common.validation import (
    require,
    require_non_negative,
    require_non_negative_int,
    require_positive,
    require_positive_int,
    require_probability,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            ConfigurationError,
            TopologyError,
            SimulationError,
            ProtocolError,
            MembershipError,
            ExperimentError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_errors_carry_messages(self):
        error = ConfigurationError("bad value")
        assert "bad value" in str(error)


class TestValidationHelpers:
    def test_require_passes_on_true(self):
        require(True, "never raised")

    def test_require_raises_on_false(self):
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")
        with pytest.raises(ConfigurationError):
            require_positive(-3, "x")

    def test_require_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.1, "x")

    def test_require_probability(self):
        require_probability(0.0, "p")
        require_probability(1.0, "p")
        with pytest.raises(ConfigurationError):
            require_probability(1.5, "p")
        with pytest.raises(ConfigurationError):
            require_probability(-0.2, "p")

    def test_require_positive_int(self):
        require_positive_int(1, "n")
        require_positive_int(np.int64(3), "n")
        for bad in (0, -2, 2.5, 3.0, True, "3", None):
            with pytest.raises(ConfigurationError, match="n must be a positive integer"):
                require_positive_int(bad, "n")

    def test_require_non_negative_int(self):
        require_non_negative_int(0, "n")
        require_non_negative_int(np.int64(3), "n")
        for bad in (-1, 2.5, 0.0, False, True, "3", None):
            with pytest.raises(ConfigurationError, match="n must be a non-negative integer"):
                require_non_negative_int(bad, "n")

    def test_error_messages_name_the_parameter(self):
        with pytest.raises(ConfigurationError, match="cache_size"):
            require_positive(0, "cache_size")
