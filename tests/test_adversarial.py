"""Tests for the adversarial & correlated-failure subsystem.

Covers the byzantine reporter models, partition outages, the
median-of-instances hardened COUNT reduction, and the threading of all of
the above through the cycle engines: reference vs vectorized bit-parity,
replicated-vs-serial parity, and the overlay split / re-merge behaviour
of NEWSCAST under a partition.
"""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RandomSource
from repro.core.functions import AverageFunction, VectorFunction
from repro.core.instances import median_size_estimates, trimmed_size_estimates
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import (
    RunPlan,
    repeat_simulations,
    uniform_initial_values,
)
from repro.simulator import CycleSimulator, VectorizedCycleSimulator, make_simulator
from repro.simulator.adversarial import ByzantineReporterModel
from repro.simulator.failures import PartitionOutageModel
from repro.simulator.transport import (
    OUTCOME_COMPLETED,
    OUTCOME_DROPPED,
    apply_reachability,
)
from repro.topology import (
    TopologySpec,
    build_overlay,
    effective_component_count,
    effective_components,
)

SIZE = 80


def build_simulator(
    engine=CycleSimulator,
    size=SIZE,
    seed=11,
    cycles=0,
    failure_model=None,
    reachability=None,
    function=None,
    values=None,
    topology=None,
):
    rng = RandomSource(seed)
    overlay = build_overlay(
        topology or TopologySpec("random", degree=6), size, rng.child("topology")
    )
    simulator = engine(
        overlay=overlay,
        function=function or AverageFunction(),
        initial_values=values if values is not None else [float(i % 17) for i in range(size)],
        rng=rng.child("sim"),
        failure_model=failure_model,
        reachability=reachability,
    )
    if cycles:
        simulator.run(cycles)
    return simulator


def assert_engines_bit_identical(make_failure=None, reachability=None, cycles=10, **kwargs):
    reference, vectorized = (
        build_simulator(
            engine=engine,
            cycles=cycles,
            failure_model=make_failure() if make_failure else None,
            reachability=reachability,
            **kwargs,
        )
        for engine in (CycleSimulator, VectorizedCycleSimulator)
    )
    assert np.array_equal(reference.participant_ids(), vectorized.participant_ids())
    assert np.array_equal(reference.state_array(), vectorized.state_array())


# ----------------------------------------------------------------------
# Byzantine reporter models
# ----------------------------------------------------------------------
def honest_ids(model, simulator):
    """Current participants that are not byzantine."""
    return sorted(set(simulator.participant_ids().tolist()) - set(model.byzantine_ids))


class TestByzantineReporterModel:
    def test_recruits_requested_fraction_once(self):
        model = ByzantineReporterModel(0.2)
        simulator = build_simulator(failure_model=model, cycles=5)
        assert len(model.byzantine_ids) == round(0.2 * SIZE)
        assert set(model.byzantine_ids) <= set(simulator.participant_ids())
        honest = honest_ids(model, simulator)
        assert len(honest) + len(model.byzantine_ids) == SIZE

    def test_one_component_state_is_forged_to_zero(self, node_row):
        # The lie is asserted at the start of every cycle (exchanges then
        # mix it into the population); applying the model by hand shows
        # the forged state exactly.  One component is all the instances.
        model = ByzantineReporterModel(0.1)
        simulator = build_simulator(failure_model=model, cycles=6)
        model.apply(simulator, 7, RandomSource(99))
        for node in model.byzantine_ids:
            assert node_row(simulator, node)[0] == 0.0

    def test_zero_lie_drags_honest_estimates(self, node_row):
        honest_mean = np.mean([float(i % 17) for i in range(SIZE)])
        baseline = build_simulator(cycles=12)
        attacked_model = ByzantineReporterModel(0.25)
        attacked = build_simulator(failure_model=attacked_model, cycles=12)
        honest = honest_ids(attacked_model, attacked)
        attacked_mean = np.mean([node_row(attacked, node)[0] for node in honest])
        baseline_mean = np.mean(baseline.state_array()[:, 0])
        assert baseline_mean == pytest.approx(honest_mean, rel=0.05)
        assert attacked_mean < 0.8 * honest_mean

    def test_corrupts_leading_instances_only(self, node_row):
        instances = 5
        model = ByzantineReporterModel(0.2, instance_fraction=0.4)
        function = VectorFunction([AverageFunction() for _ in range(instances)])
        values = [tuple(float(i + j) for j in range(instances)) for i in range(SIZE)]
        simulator = build_simulator(
            failure_model=model, cycles=3, function=function, values=values
        )
        corrupted = max(1, math.ceil(0.4 * instances))
        model.apply(simulator, 4, RandomSource(99))
        for node in model.byzantine_ids:
            state = node_row(simulator, node)
            assert all(component == 0.0 for component in state[:corrupted])
            assert all(component != 0.0 for component in state[corrupted:])

    def test_zero_fraction_recruits_nobody(self):
        model = ByzantineReporterModel(0.0)
        build_simulator(failure_model=model, cycles=3)
        assert model.byzantine_ids == []

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            ByzantineReporterModel(1.5)
        with pytest.raises(ConfigurationError):
            ByzantineReporterModel(0.1, instance_fraction=2.0)
        with pytest.raises(ConfigurationError):
            ByzantineReporterModel(0.1, instance_fraction=0.0)


class TestByzantineEngineParity:
    def test_reference_and_vectorized_bit_identical(self):
        assert_engines_bit_identical(make_failure=lambda: ByzantineReporterModel(0.1))

    def test_parity_on_multi_instance_states(self):
        # The attack reads the honest components back from each engine's
        # state block, so the two engines must agree there too.
        instances = 3
        assert_engines_bit_identical(
            make_failure=lambda: ByzantineReporterModel(0.15, instance_fraction=0.4),
            function=VectorFunction([AverageFunction() for _ in range(instances)]),
            values=[tuple(float((i + j) % 13) for j in range(instances)) for i in range(SIZE)],
        )

    def test_replicated_matches_serial_under_attack(self):
        plan = RunPlan(
            topology=TopologySpec("random", degree=5),
            size=60,
            cycles=8,
            values=uniform_initial_values,
            failure_factory=lambda: ByzantineReporterModel(0.1),
        )
        replicated = repeat_simulations(3, 21, plan=plan)
        root = RandomSource(21)
        serial = [plan.serial_run(index, root.child("run", index)) for index in range(3)]
        for fast, slow in zip(replicated, serial):
            assert fast.records[-1].variance == slow.records[-1].variance

    def test_override_values_rejects_non_participants(self):
        simulator = build_simulator(engine=VectorizedCycleSimulator)
        with pytest.raises(SimulationError):
            simulator.override_values([SIZE + 5], np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "engine", [CycleSimulator, VectorizedCycleSimulator], ids=["reference", "vectorized"]
    )
    def test_rejected_override_writes_nothing(self, engine, node_row):
        # Regression: the reference engine wrote node 3, then raised on the
        # crashed node 7, leaving a half-applied forgery behind.
        simulator = build_simulator(engine=engine)
        simulator.crash_node(7)
        before = simulator.state_array()
        with pytest.raises(SimulationError, match="node 7 "):
            simulator.override_values([3, 7], [99.0, 99.0])
        assert np.array_equal(simulator.state_array(), before)
        assert node_row(simulator, 3)[0] == 3.0


# ----------------------------------------------------------------------
# Reachability: partition outages
# ----------------------------------------------------------------------
class TestPartitionOutageModel:
    def test_window_and_boundary(self):
        model = PartitionOutageModel.split(100, 0.3, 5, 9)
        assert model.boundary == 30
        assert not model.is_active(4)
        assert model.is_active(5)
        assert model.is_active(8)
        assert not model.is_active(9)

    def test_blocks_only_cross_boundary_pairs(self):
        model = PartitionOutageModel(boundary=50, start_cycle=1, heal_cycle=10)
        initiators = np.array([10, 60, 10, 60])
        peers = np.array([20, 70, 70, 20])
        blocked = model.blocked_pairs(initiators, peers, 3)
        assert blocked.tolist() == [False, False, True, True]
        assert model.blocked_pairs(initiators, peers, 10) is None

    def test_scalar_blocks_helper(self):
        model = PartitionOutageModel(boundary=50, start_cycle=1, heal_cycle=10)
        assert model.blocks(10, 70, 3)
        assert not model.blocks(10, 20, 3)
        assert not model.blocks(10, 70, 12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionOutageModel(boundary=0, start_cycle=1, heal_cycle=2)
        with pytest.raises(ConfigurationError, match="1-based"):
            PartitionOutageModel(boundary=5, start_cycle=0, heal_cycle=2)
        with pytest.raises(ConfigurationError):
            PartitionOutageModel(boundary=5, start_cycle=3, heal_cycle=3)
        with pytest.raises(ConfigurationError):
            PartitionOutageModel.split(100, 1.5, 1, 2)

    def test_split_rejects_a_side_with_no_nodes(self):
        # round(fraction * size) must leave one node on each side; the
        # split used to clamp to 1 / size - 1 silently instead.
        with pytest.raises(ConfigurationError, match="each side"):
            PartitionOutageModel.split(10, 0.0, 1, 2)
        with pytest.raises(ConfigurationError, match="each side"):
            PartitionOutageModel.split(10, 1.0, 1, 2)
        with pytest.raises(ConfigurationError, match="each side"):
            PartitionOutageModel.split(10, 0.02, 1, 2)
        assert PartitionOutageModel.split(10, 0.1, 1, 2).boundary == 1
        assert PartitionOutageModel.split(10, 0.9, 1, 2).boundary == 9


class TestApplyReachability:
    def test_marks_blocked_pairs_dropped(self):
        model = PartitionOutageModel(boundary=5, start_cycle=1, heal_cycle=9)
        initiators = np.array([1, 2, 6])
        peers = np.array([7, 3, -1])
        outcomes = np.full(3, OUTCOME_COMPLETED)
        assert apply_reachability(model, initiators, peers, outcomes, 2)
        # Unmatched peers (-1) are never rewritten.
        assert outcomes.tolist() == [OUTCOME_DROPPED, OUTCOME_COMPLETED, OUTCOME_COMPLETED]

    def test_inert_model_leaves_outcomes_alone(self):
        model = PartitionOutageModel(boundary=5, start_cycle=8, heal_cycle=9)
        outcomes = np.full(2, OUTCOME_COMPLETED)
        assert not apply_reachability(
            model, np.array([1, 6]), np.array([7, 2]), outcomes, 2
        )
        assert outcomes.tolist() == [OUTCOME_COMPLETED] * 2
        assert not apply_reachability(None, np.array([1]), np.array([7]), outcomes[:1], 2)


class TestPartitionEngineBehaviour:
    def test_engine_parity_under_partition(self):
        reachability = PartitionOutageModel(boundary=SIZE // 2, start_cycle=3, heal_cycle=8)
        assert_engines_bit_identical(reachability=reachability, cycles=12)

    def test_partition_freezes_cross_side_mixing(self):
        # During the outage each side conserves its own mass, so the gap
        # between the side means cannot move.
        reachability = PartitionOutageModel(boundary=SIZE // 2, start_cycle=1, heal_cycle=100)
        simulator = build_simulator(
            engine=VectorizedCycleSimulator, reachability=reachability, cycles=15
        )
        ids = np.asarray(simulator.participant_ids())
        states = np.array(simulator.state_array(), dtype=float).reshape(ids.size, -1)[:, 0]
        values = np.array([float(i % 17) for i in range(SIZE)])
        low_mean = states[ids < SIZE // 2].mean()
        high_mean = states[ids >= SIZE // 2].mean()
        assert low_mean == pytest.approx(values[: SIZE // 2].mean())
        assert high_mean == pytest.approx(values[SIZE // 2 :].mean())


class TestNewscastSplitAndRemerge:
    def test_overlay_splits_then_remerges_and_reconverges(self):
        size = 120
        spec = TopologySpec("newscast", degree=15, params={"vectorized": True})
        rng = RandomSource(9)
        overlay = build_overlay(spec, size, rng.child("topology"))
        reachability = PartitionOutageModel.split(size, 0.5, 1, 5)
        simulator = make_simulator(
            overlay=overlay,
            function=AverageFunction(),
            initial_values=[float(i % 23) for i in range(size)],
            rng=rng.child("sim"),
            reachability=reachability,
        )
        simulator.run(4)
        # During the outage the effective communication graph is split
        # cleanly along the id boundary: no component straddles it.
        assert effective_component_count(overlay, reachability, 4) >= 2
        components = effective_components(overlay, reachability, 4)
        assert sum(len(component) for component in components) == size
        boundary = reachability.boundary
        assert all(
            min(component) >= boundary or max(component) < boundary
            for component in components
        )
        # After the heal the halves re-merge through surviving cross-side
        # cache entries and the estimate re-converges.
        simulator.run(16)
        assert effective_component_count(overlay, None, 0) == 1
        states = np.array(simulator.state_array(), dtype=float)
        assert float(np.var(states)) < 1e-3

    def test_components_without_reachability_on_connected_overlay(self):
        rng = RandomSource(4)
        overlay = build_overlay(TopologySpec("random", degree=6), 50, rng)
        components = effective_components(overlay)
        assert len(components) == 1
        assert components[0] == list(range(50))


# ----------------------------------------------------------------------
# Median-of-instances hardened COUNT
# ----------------------------------------------------------------------
class TestMedianReducer:
    def test_median_matches_inline_numpy_median(self):
        rng = RandomSource(5)
        block = np.abs(rng.generator.normal(0.05, 0.02, (30, 9))) + 1e-4
        block[::4, :3] = 0.0  # vanished mass: infinite sizes take part
        sizes = np.full(block.shape, np.inf)
        positive = block > 0.0
        sizes[positive] = 1.0 / block[positive]
        assert np.array_equal(median_size_estimates(block), np.median(sizes, axis=1))

    def test_median_survives_minority_corruption_where_trimmed_fails(self):
        # 16 instances, 7 ruined (mass drained to ~0): more than the
        # trimmed mean's floor(16/3) = 5 per-tail budget, still a minority.
        truthful = 1.0 / 100.0
        block = [[1e-9] * 7 + [truthful] * 9]
        median = median_size_estimates(block)[0]
        trimmed = trimmed_size_estimates(block)[0]
        assert median == pytest.approx(100.0, rel=0.01)
        assert trimmed > 2 * 100.0

    def test_median_handles_vanished_mass(self):
        block = [[0.0, -1e-9, 1.0 / 50.0, 1.0 / 50.0, 1.0 / 50.0]]
        assert median_size_estimates(block)[0] == pytest.approx(50.0)


# ----------------------------------------------------------------------
# Experiment layer: plans and figures
# ----------------------------------------------------------------------
TINY = ExperimentScale(name="tiny", network_size=80, repeats=2, sweep_points=3)


def partition_window(figure):
    """The ``[start, heal)`` cycle window the partition figure reports."""
    start, heal = figure.parameters["partition_window"].strip("[)").split(",")
    return int(start), int(heal)


class TestRobustnessFigures:
    def test_byzantine_degradation_orders_reducers(self):
        figure = ALL_FIGURES["byzantine"](TINY, cycles=15)
        fractions = [row["byzantine_fraction"] for row in figure.rows]
        assert fractions[0] == 0.0 and fractions[-1] == pytest.approx(0.2)
        for row in figure.rows:
            if row["byzantine_fraction"] == 0.0:
                assert row["median_error"] < 0.01
                assert row["single_instance_error"] < 0.01
            else:
                assert row["median_error"] < row["single_instance_error"]
                assert row["median_error"] <= row["trimmed_error"]

    def test_partition_recovery_splits_and_heals(self):
        figure = ALL_FIGURES["partition"](TINY, cycles=20)
        start, heal = partition_window(figure)
        by_cycle = {row["cycle"]: row for row in figure.rows}
        assert by_cycle[start + 1]["partition_active"]
        assert by_cycle[start + 1]["components"] >= 2
        assert not by_cycle[heal]["partition_active"]
        assert by_cycle[20]["components"] == 1
        assert by_cycle[20]["side_gap"] < 0.1
        assert by_cycle[20]["variance"] < by_cycle[start - 1]["variance"]

    def test_figures_registered(self):
        assert "byzantine" in ALL_FIGURES and "partition" in ALL_FIGURES
