"""Tests for the high-level `aggregate` convenience API."""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.protocol import AGGREGATES, aggregate
from repro.simulator import CycleSimulator
from repro.simulator.failures import ChurnModel, ProportionalCrashModel, SuddenDeathModel
from repro.simulator.transport import TransportModel
from repro.topology import TopologySpec, build_overlay


class TestBasicAggregates:
    def test_average(self):
        result = aggregate([2.0, 4.0, 6.0, 8.0] * 25, aggregate="average", seed=1)
        assert result.mean_estimate == pytest.approx(5.0, rel=1e-6)
        assert result.relative_error < 1e-6
        assert result.exact_value == 5.0

    def test_sum(self):
        values = [float(i) for i in range(1, 101)]
        result = aggregate(values, aggregate="sum", seed=2)
        assert result.exact_value == 5050.0
        assert result.mean_estimate == pytest.approx(5050.0, rel=1e-3)

    def test_count(self):
        result = aggregate([0.0] * 150, aggregate="count", seed=3)
        assert result.exact_value == 150.0
        assert result.mean_estimate == pytest.approx(150.0, rel=1e-3)

    def test_variance(self):
        result = aggregate([1.0, 5.0] * 60, aggregate="variance", seed=4)
        assert result.exact_value == pytest.approx(4.0)
        assert result.mean_estimate == pytest.approx(4.0, rel=1e-3)

    def test_min_and_max(self):
        values = [float(i) for i in range(10, 110)]
        low = aggregate(values, aggregate="min", seed=5)
        high = aggregate(values, aggregate="max", seed=5)
        assert low.mean_estimate == 10.0
        assert high.mean_estimate == 109.0

    def test_geometric_mean(self):
        result = aggregate([2.0, 8.0] * 50, aggregate="geometric-mean", seed=6)
        assert result.mean_estimate == pytest.approx(4.0, rel=1e-4)

    def test_product(self):
        result = aggregate([1.1] * 80, aggregate="product", seed=7, cycles=50)
        assert result.exact_value == pytest.approx(1.1 ** 80)
        assert result.mean_estimate == pytest.approx(1.1 ** 80, rel=0.05)

    def test_product_overflow_reports_inf(self):
        result = aggregate([3.0] * 700, aggregate="product")
        assert result.mean_estimate == math.inf
        assert result.exact_value == math.inf

    def test_geometric_mean_exact_value_when_the_product_overflows(self):
        result = aggregate([1e10, 1e12] * 200, aggregate="geometric-mean", seed=6)
        assert result.exact_value == pytest.approx(1e11, rel=1e-12)
        assert result.relative_error < 1e-6

    @pytest.mark.parametrize("name", ["product", "geometric-mean"])
    def test_negative_values_rejected(self, name):
        with pytest.raises(ConfigurationError):
            aggregate([1.0, -2.0, 3.0], aggregate=name)


class TestResultObject:
    def test_node_estimates_cover_all_nodes(self):
        result = aggregate([1.0] * 60, aggregate="average", seed=1)
        assert len(result.node_estimates) == 60

    def test_max_node_error_small_after_convergence(self):
        result = aggregate([3.0, 9.0] * 40, aggregate="average", seed=1, cycles=40)
        assert result.max_node_error() < 1e-6

    @pytest.mark.parametrize("name", sorted(AGGREGATES))
    def test_max_node_error_of_an_empty_population(self, name):
        result = aggregate([0.0] * 50, name, failure_model=SuddenDeathModel(1.0, 1))
        assert result.node_estimates == {}
        assert result.mean_estimate == result.relative_error == math.inf
        assert result.max_node_error() == math.inf

    def test_trace_is_exposed(self):
        result = aggregate([1.0, 2.0] * 30, aggregate="average", seed=1, cycles=12)
        assert len(result.trace) == 13
        assert result.trace.final.cycle == 12


class TestConfiguration:
    def test_unknown_aggregate_rejected(self):
        for name in ("median", "mean", "geomean"):
            with pytest.raises(ConfigurationError):
                aggregate([1.0, 2.0, 3.0], aggregate=name)

    @pytest.mark.parametrize("name", sorted(AGGREGATES))
    def test_known_aggregate_names_all_work(self, name):
        result = aggregate([1.0, 2.0, 3.0, 4.0] * 10, aggregate=name, seed=1, cycles=15)
        assert math.isfinite(result.mean_estimate)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate([1.0], aggregate="average")

    def test_custom_topology(self):
        result = aggregate(
            [5.0, 15.0] * 40,
            aggregate="average",
            topology=TopologySpec("watts-strogatz", degree=6, beta=0.5),
            seed=1,
            cycles=40,
        )
        assert result.mean_estimate == pytest.approx(10.0, rel=1e-3)

    def test_newscast_topology(self):
        result = aggregate(
            [5.0, 15.0] * 40,
            aggregate="average",
            topology=TopologySpec("newscast", degree=10),
            seed=1,
        )
        assert result.mean_estimate == pytest.approx(10.0, rel=1e-3)

    def test_seed_reproducibility(self):
        values = [float(i) for i in range(80)]
        first = aggregate(values, aggregate="average", seed=9, cycles=5)
        second = aggregate(values, aggregate="average", seed=9, cycles=5)
        assert first.node_estimates == second.node_estimates

    def test_failure_model_changes_outcome_but_not_wildly(self):
        values = [float(i) for i in range(100)]
        result = aggregate(
            values,
            aggregate="average",
            seed=10,
            failure_model=ProportionalCrashModel(0.02),
        )
        assert result.relative_error < 0.2

    def test_transport_model_passed_through(self):
        values = [float(i) for i in range(100)]
        result = aggregate(
            values,
            aggregate="average",
            seed=10,
            cycles=10,
            transport=TransportModel(link_failure_probability=0.9),
        )
        # Convergence is slowed down, so node estimates still disagree.
        assert result.trace.final.variance > 0


#: aggregate() settings a reference run is compared under: the transport
#: and a factory for a fresh failure model.
#: Churn adds nodes, so its scenario runs on NEWSCAST, the overlay that takes joins.
PARITY_SCENARIOS = {
    "perfect": (TransportModel(), lambda: None, TopologySpec("random", degree=20)),
    "lossy-churn": (
        TransportModel(message_loss_probability=0.1),
        lambda: ChurnModel(3),
        TopologySpec("newscast", degree=20),
    ),
}


class TestArrayEngineParity:
    """aggregate() runs the array engine; the reference engine, driven the
    same way from the same seed, must give the very same answer."""

    @pytest.mark.parametrize("scenario", sorted(PARITY_SCENARIOS))
    @pytest.mark.parametrize("name", list(AGGREGATES))
    def test_matches_a_reference_run_bit_for_bit(self, name, scenario):
        transport, failure_factory, topology = PARITY_SCENARIOS[scenario]
        values = np.array([1.0 + (i % 13) / 10.0 for i in range(120)])
        seed, cycles = 2004, 15
        result = aggregate(
            values.tolist(), name, cycles=cycles, seed=seed, topology=topology,
            transport=transport, failure_model=failure_factory(),
        )

        record = AGGREGATES[name]
        rng = RandomSource(seed)
        overlay = build_overlay(topology, values.size, rng.child("topology"))
        reference = CycleSimulator(
            overlay, record.function, record.initial(values).tolist(), rng.child("simulation"),
            transport=transport, failure_model=failure_factory(),
        )
        reference.run(cycles)
        outputs = record.finalize(reference.state_array())

        assert list(result.node_estimates) == reference.participant_ids().tolist()
        assert np.array(list(result.node_estimates.values())).tobytes() == outputs.tobytes()
        finite = outputs[np.isfinite(outputs)]
        assert result.mean_estimate == float(np.mean(finite))
        assert [repr(row) for row in result.trace] == [repr(row) for row in reference.trace]
