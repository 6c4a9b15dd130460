"""Tests for epoch configuration."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.core.epoch import EpochConfig


class TestEpochConfig:
    def test_default_epoch_length_is_gamma_delta(self):
        config = EpochConfig(cycle_length=2.0, cycles_per_epoch=10)
        assert config.effective_epoch_length == 20.0

    def test_explicit_epoch_length(self):
        config = EpochConfig(cycle_length=1.0, cycles_per_epoch=10, epoch_length=35.0)
        assert config.effective_epoch_length == 35.0

    def test_epoch_start_time(self):
        config = EpochConfig(cycle_length=1.0, cycles_per_epoch=10)
        assert config.epoch_start_time(3) == 30.0

    def test_epoch_for_time(self):
        config = EpochConfig(cycle_length=1.0, cycles_per_epoch=10)
        assert config.epoch_for_time(25.0) == 2

    def test_epoch_for_time_at_exact_boundaries(self):
        # A boundary instant belongs to the epoch that *starts* there:
        # epoch k spans [k·Δ, (k+1)·Δ).
        config = EpochConfig(cycle_length=1.0, cycles_per_epoch=10)
        assert config.epoch_for_time(0.0) == 0
        assert config.epoch_for_time(10.0) == 1
        assert config.epoch_for_time(20.0) == 2
        # Just below a boundary still belongs to the finishing epoch.
        assert config.epoch_for_time(math.nextafter(10.0, 0.0)) == 0
        # Round-trip with the nominal start times.
        for epoch in range(5):
            assert config.epoch_for_time(config.epoch_start_time(epoch)) == epoch

    def test_epoch_for_time_with_explicit_epoch_length(self):
        config = EpochConfig(cycle_length=1.0, cycles_per_epoch=10, epoch_length=4.0)
        assert config.epoch_for_time(3.999) == 0
        assert config.epoch_for_time(4.0) == 1
        assert config.epoch_for_time(8.0) == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EpochConfig(cycle_length=0.0)
        with pytest.raises(ConfigurationError):
            EpochConfig(cycles_per_epoch=0)
        with pytest.raises(ConfigurationError):
            EpochConfig(epoch_length=-1.0)
        with pytest.raises(ConfigurationError):
            EpochConfig().epoch_start_time(-1)
        with pytest.raises(ConfigurationError):
            EpochConfig().epoch_for_time(-0.1)

    @pytest.mark.parametrize("gamma", [2.5, 3.0, True, "4"])
    def test_non_integer_cycles_per_epoch_rejected(self, gamma):
        # Regression: 2.5 constructed, then the cycle engines died with a
        # raw TypeError while the async engine ran without complaint.
        with pytest.raises(ConfigurationError, match="cycles_per_epoch"):
            EpochConfig(cycles_per_epoch=gamma)


class TestNonFiniteTime:
    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("rule", ["epoch_for_time"])
    def test_refused_with_a_configuration_error(self, rule, time):
        # NaN and +inf used to escape as "cannot convert float NaN to
        # integer" from the floor division.
        with pytest.raises(ConfigurationError, match="time must be non-negative and finite"):
            getattr(EpochConfig(), rule)(time)
