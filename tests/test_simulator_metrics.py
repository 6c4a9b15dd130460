"""Tests for the measurement records and trace-derived quantities."""

import math

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.simulator.metrics import CycleRecord, SimulationTrace, estimate_statistics


def make_record(cycle: int, variance: float) -> CycleRecord:
    return CycleRecord(
        cycle=cycle,
        participant_count=100,
        mean=1.0,
        variance=variance,
        minimum=0.0,
        maximum=2.0,
        completed_exchanges=90,
        failed_exchanges=10,
    )


def make_trace(variances) -> SimulationTrace:
    trace = SimulationTrace()
    for cycle, variance in enumerate(variances):
        trace.add(make_record(cycle, variance))
    return trace


class TestEmpiricalStatistics:
    """``estimate_statistics``: the paper's eq. (1) over one population."""

    def test_mean_ignores_non_finite(self):
        # NaN is a node without an estimate (a scalar ``None``).
        mean, variance, minimum, maximum = estimate_statistics(
            np.array([1.0, 3.0, math.inf, math.nan])
        )
        assert (mean, variance, minimum, maximum) == (2.0, 2.0, 1.0, 3.0)

    def test_mean_of_nothing_is_nan(self):
        for estimates in (np.array([math.inf, math.nan]), np.empty(0)):
            mean, variance, minimum, maximum = estimate_statistics(estimates)
            assert math.isnan(mean) and math.isnan(minimum) and math.isnan(maximum)
            assert variance == 0.0

    def test_variance_uses_n_minus_one(self):
        assert estimate_statistics(np.array([1.0, 3.0]))[1] == pytest.approx(2.0)

    def test_variance_of_single_value_is_zero(self):
        assert estimate_statistics(np.array([5.0]))[1] == 0.0


class TestSimulationTrace:
    def test_records_must_be_increasing(self):
        trace = make_trace([1.0, 0.5])
        with pytest.raises(SimulationError):
            trace.add(make_record(1, 0.1))

    def test_initial_and_final(self):
        trace = make_trace([1.0, 0.5, 0.25])
        assert trace.initial.cycle == 0
        assert trace.final.cycle == 2

    def test_empty_trace_raises(self):
        with pytest.raises(SimulationError):
            SimulationTrace().final

    def test_record_at(self):
        trace = make_trace([1.0, 0.5])
        assert trace.record_at(1).variance == 0.5
        with pytest.raises(SimulationError):
            trace.record_at(9)

    def test_len_counts_the_records(self):
        trace = make_trace([1.0, 0.5, 0.25])
        assert len(trace) == 3
        assert [record.cycle for record in trace.records] == [0, 1, 2]

    def test_variance_reduction_normalised_by_initial(self):
        trace = make_trace([4.0, 2.0, 1.0])
        assert trace.variance_reduction() == [1.0, 0.5, 0.25]

    def test_variance_reduction_with_zero_initial(self):
        trace = make_trace([0.0, 0.0])
        assert trace.variance_reduction() == [0.0, 0.0]

    def test_average_convergence_factor_geometric_mean(self):
        trace = make_trace([1.0, 0.25, 0.0625])
        assert trace.average_convergence_factor() == pytest.approx(0.25)

    def test_average_convergence_factor_with_window(self):
        trace = make_trace([1.0, 0.5, 0.5, 0.5])
        assert trace.average_convergence_factor(cycles=1) == pytest.approx(0.5)

    def test_average_convergence_factor_requires_two_records(self):
        with pytest.raises(SimulationError):
            make_trace([1.0]).average_convergence_factor()

    def test_fully_converged_trace_gives_tiny_factor(self):
        trace = make_trace([1.0, 0.0, 0.0])
        assert trace.average_convergence_factor() < 1e-100
