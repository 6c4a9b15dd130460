"""Tests for the empirical convergence measures."""

import pytest

from repro.analysis.convergence import (
    mean_convergence_factor,
    normalized_mean_variance,
    variance_reduction_curve,
)
from repro.common.errors import ExperimentError
from repro.simulator.metrics import CycleRecord, SimulationTrace


def trace_from(variances, means=None) -> SimulationTrace:
    trace = SimulationTrace()
    means = means or [1.0] * len(variances)
    for cycle, (variance, mean) in enumerate(zip(variances, means)):
        trace.add(
            CycleRecord(
                cycle=cycle,
                participant_count=50,
                mean=mean,
                variance=variance,
                minimum=mean,
                maximum=mean,
            )
        )
    return trace


class TestMeanConvergenceFactor:
    def test_average_over_traces(self):
        traces = [trace_from([1.0, 0.25]), trace_from([1.0, 0.0625, 0.25 * 0.0625])]
        # factors: 0.25 and 0.0625^(1/1)... second trace uses full window:
        # (0.015625/1)^(1/2) = 0.125
        assert mean_convergence_factor(traces) == pytest.approx((0.25 + 0.125) / 2)

    def test_window_restriction(self):
        traces = [trace_from([1.0, 0.5, 0.005])]
        assert mean_convergence_factor(traces, cycles=1) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            mean_convergence_factor([])


class TestVarianceReductionCurve:
    def test_average_across_traces(self):
        traces = [trace_from([2.0, 1.0]), trace_from([4.0, 1.0])]
        curve = variance_reduction_curve(traces)
        assert curve[0] == 1.0
        assert curve[1] == pytest.approx((0.5 + 0.25) / 2)

    def test_truncates_to_shortest(self):
        traces = [trace_from([1.0, 0.5]), trace_from([1.0, 0.5, 0.25])]
        assert len(variance_reduction_curve(traces)) == 2

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            variance_reduction_curve([])


class TestNormalizedMeanVariance:
    def test_drift_variance_normalised(self):
        # Two runs, initial mean 1.0, final means 1.1 and 0.9 -> drift +-0.1,
        # variance of drift = 0.02; initial variance 4.0 -> 0.005.
        traces = [
            trace_from([4.0, 1.0], means=[1.0, 1.1]),
            trace_from([4.0, 1.0], means=[1.0, 0.9]),
        ]
        value = normalized_mean_variance(traces)
        assert value == pytest.approx(0.02 / 4.0)

    def test_without_subtracting_initial(self):
        traces = [
            trace_from([4.0, 1.0], means=[1.0, 1.1]),
            trace_from([4.0, 1.0], means=[1.0, 0.9]),
        ]
        raw = normalized_mean_variance(traces, subtract_initial=False)
        assert raw == pytest.approx(0.02 / 4.0)  # same here because µ0 identical

    def test_at_specific_cycle(self):
        traces = [
            trace_from([4.0, 2.0, 1.0], means=[1.0, 1.2, 5.0]),
            trace_from([4.0, 2.0, 1.0], means=[1.0, 0.8, 5.0]),
        ]
        middle = normalized_mean_variance(traces, at_cycle=1)
        assert middle == pytest.approx(0.08 / 4.0)

    def test_requires_two_runs(self):
        with pytest.raises(ExperimentError):
            normalized_mean_variance([trace_from([1.0, 0.5])])

    def test_zero_initial_variance_rejected(self):
        traces = [trace_from([0.0, 0.0]), trace_from([0.0, 0.0])]
        with pytest.raises(ExperimentError):
            normalized_mean_variance(traces)
