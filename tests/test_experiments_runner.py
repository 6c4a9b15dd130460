"""Tests for the experiment runner plumbing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.functions import AverageFunction
from repro.experiments.runner import (
    peak_values_for_count,
    repeat_simulations,
    repeat_traces,
    uniform_initial_values,
)
from repro.simulator import make_simulator
from repro.topology import TopologySpec, build_overlay


def _trace_run(index, rng):
    """One short AVERAGE run drawn from the repetition's stream."""
    values = uniform_initial_values(30, rng)
    overlay = build_overlay(TopologySpec("random", degree=4), 30, rng.child("topology"))
    simulator = make_simulator(overlay, AverageFunction(), values, rng.child("simulation"))
    return simulator.run(3)


class TestValueGenerators:
    def test_uniform_initial_values_bounds_and_length(self):
        rng = RandomSource(1)
        values = uniform_initial_values(200, rng)
        assert len(values) == 200
        assert all(0.0 <= value < 100.0 for value in values)

    def test_peak_values_for_count_default(self):
        values = peak_values_for_count(10)
        assert values[0] == 1.0
        assert sum(values) == 1.0

    def test_peak_values_with_custom_peak(self):
        values = peak_values_for_count(10, peak_value=10.0)
        assert values[0] == 10.0


class TestRepetitionHelpers:
    def test_repeat_traces_uses_independent_seeds(self):
        traces = repeat_traces(3, seed=9, make_run=_trace_run)
        assert len(traces) == 3
        means = [trace.initial.mean for trace in traces]
        assert len(set(means)) == 3  # different initial draws per run

    def test_repeat_traces_reproducible(self):
        def make_run(index, rng):
            return rng.uniform(0.0, 1.0)

        assert repeat_simulations(4, 7, make_run) == repeat_simulations(4, 7, make_run)

    def test_runs_serially_in_index_order(self):
        calls = []

        def make_run(index, rng):
            calls.append(index)
            return index

        assert repeat_simulations(3, 1, make_run) == [0, 1, 2]
        assert calls == [0, 1, 2]

    @pytest.mark.parametrize("repeats", [-1, 2.5, True])
    def test_repeats_must_be_a_non_negative_integer(self, repeats):
        # 2.5 used to raise a raw TypeError from range().
        with pytest.raises(ConfigurationError, match="repeats"):
            repeat_simulations(repeats, 1, lambda index, rng: index)
