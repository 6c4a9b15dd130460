"""Tests for the experiment scaling presets and reporting helpers."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.config import (
    DEFAULT,
    PAPER,
    SMOKE,
    ExperimentScale,
    scale_from_environment,
)
from repro.experiments.reporting import format_value, render_table


class TestExperimentScale:
    def test_presets_are_ordered_by_size(self):
        assert SMOKE.network_size < DEFAULT.network_size < PAPER.network_size

    def test_paper_preset_matches_publication(self):
        assert PAPER.network_size == 100_000
        assert PAPER.repeats == 50

    def test_with_overrides(self):
        scale = SMOKE.with_overrides(network_size=123, repeats=2)
        assert scale.network_size == 123
        assert scale.repeats == 2
        assert scale.sweep_points == SMOKE.sweep_points
        assert SMOKE.network_size != 123  # original untouched (frozen)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(name="bad", network_size=0, repeats=1, sweep_points=1)
        with pytest.raises(ConfigurationError):
            ExperimentScale(name="bad", network_size=10, repeats=0, sweep_points=1)

    def test_scale_from_environment_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_environment() is SMOKE

    def test_scale_from_environment_selects_preset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "default")
        assert scale_from_environment() is DEFAULT

    def test_scale_from_environment_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ConfigurationError):
            scale_from_environment()


class TestReporting:
    def test_format_value_variants(self):
        assert format_value(3) == "3"
        assert format_value(True) == "True"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("-inf")) == "-inf"
        assert format_value(float("nan")) == "nan"
        assert format_value("text") == "text"
        assert "e" in format_value(1.23e-9)
        assert format_value(0.25) == "0.25"

    def test_render_table_alignment_and_title(self):
        rows = [{"x": 1, "y": 2.5}, {"x": 10, "y": 0.125}]
        text = render_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "x" in lines[1] and "y" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(no data)" in render_table([], title="empty")
