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
    """Module-level run callable so the process pool can pickle it."""
    values = uniform_initial_values(30, rng)
    overlay = build_overlay(TopologySpec("random", degree=4), 30, rng.child("topology"))
    simulator = make_simulator(overlay, AverageFunction(), values, rng.child("simulation"))
    return simulator.run(3)


def _draw_run(index, rng):
    """Module-level draw callable so the process pool can pickle it."""
    return (index, rng.random())


class TestValueGenerators:
    def test_uniform_initial_values_bounds_and_length(self):
        rng = RandomSource(1)
        values = uniform_initial_values(200, rng, low=5.0, high=6.0)
        assert len(values) == 200
        assert all(5.0 <= value < 6.0 for value in values)

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
            return rng.random()

        assert repeat_simulations(4, 7, make_run) == repeat_simulations(4, 7, make_run)


class TestParallelRepetition:
    def test_process_pool_matches_serial_bit_for_bit(self):
        serial = repeat_simulations(4, 7, _draw_run)
        parallel = repeat_simulations(4, 7, _draw_run, max_workers=4)
        assert parallel == serial
        assert [index for index, _ in parallel] == [0, 1, 2, 3]

    def test_thread_pool_matches_serial_bit_for_bit(self):
        def make_run(index, rng):
            return rng.random()

        serial = repeat_simulations(6, 21, make_run)
        threaded = repeat_simulations(
            6, 21, make_run, max_workers=3, executor="thread"
        )
        assert threaded == serial

    def test_parallel_traces_match_serial(self):
        serial = repeat_traces(3, 9, _trace_run)
        parallel = repeat_traces(3, 9, _trace_run, max_workers=3)
        for trace_a, trace_b in zip(serial, parallel):
            assert trace_a.records == trace_b.records

    def test_unpicklable_closure_falls_back_to_threads(self):
        marker = object()  # closures over arbitrary objects cannot pickle

        def make_run(index, rng, _marker=marker):
            return rng.random()

        serial = repeat_simulations(4, 13, make_run)
        parallel = repeat_simulations(4, 13, make_run, max_workers=2)
        assert parallel == serial

    def test_single_worker_stays_serial(self):
        calls = []

        def make_run(index, rng):
            calls.append(index)
            return index

        assert repeat_simulations(3, 1, make_run, max_workers=1) == [0, 1, 2]
        assert calls == [0, 1, 2]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            repeat_simulations(-1, 1, _draw_run)
        with pytest.raises(ConfigurationError):
            repeat_simulations(2, 1, _draw_run, max_workers=2, executor="fiber")
