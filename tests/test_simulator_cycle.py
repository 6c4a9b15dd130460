"""Tests for the cycle-driven simulation engine."""

import numpy as np
import pytest
from static_graphs import static_graph

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.functions import AverageFunction, MaxFunction, PushSumFunction
from repro.simulator.cycle_sim import CycleSimulator
from repro.simulator.transport import TransportModel
from repro.simulator.vectorized import VectorizedCycleSimulator
from repro.topology import TopologySpec, build_overlay


def make_simulator(
    size=50, seed=7, values=None, function=None, transport=None, degree=6, kind="random"
):
    rng = RandomSource(seed)
    overlay = build_overlay(TopologySpec(kind, degree=degree), size, rng.child("topology"))
    return CycleSimulator(
        overlay=overlay,
        function=function or AverageFunction(),
        initial_values=values if values is not None else [float(i) for i in range(size)],
        rng=rng.child("sim"),
        transport=transport or TransportModel(),
    )


class TestConstruction:
    def test_initial_record_present(self):
        simulator = make_simulator()
        assert len(simulator.trace) == 1
        assert simulator.trace.initial.cycle == 0
        assert simulator.trace.initial.participant_count == 50

    def test_initial_values_as_mapping(self):
        rng = RandomSource(1)
        overlay = build_overlay(TopologySpec("random", degree=3), 10, rng.child("t"))
        simulator = CycleSimulator(
            overlay, AverageFunction(), {node: 2.0 for node in range(10)}, rng.child("s")
        )
        assert simulator.trace.initial.mean == 2.0

    def test_missing_initial_values_rejected(self):
        rng = RandomSource(1)
        overlay = build_overlay(TopologySpec("random", degree=3), 10, rng.child("t"))
        with pytest.raises(ConfigurationError):
            CycleSimulator(overlay, AverageFunction(), [1.0] * 5, rng.child("s"))

    @pytest.mark.parametrize("engine", [CycleSimulator, VectorizedCycleSimulator])
    def test_one_value_per_node_is_read_in_id_order_on_sparse_ids(self, engine):
        # Ids 1, 2, 4, 6, 7 and 8 have crashed.
        overlay = static_graph({9: {0}, 0: {9, 3}, 3: {0, 5}, 5: {3}})
        values = np.array([10.0, 13.0, 15.0, 19.0])
        simulator = engine(overlay, AverageFunction(), values, RandomSource(1))
        assert simulator.participant_ids().tolist() == [0, 3, 5, 9]
        assert simulator.state_array()[:, 0].tolist() == values.tolist()
        # A longer sequence is still indexed by id.
        by_id = [float(node) for node in range(10)]
        simulator = engine(overlay, AverageFunction(), by_id, RandomSource(1))
        assert simulator.state_array()[:, 0].tolist() == [0.0, 3.0, 5.0, 9.0]


class TestAveraging:
    def test_sum_conserved_without_failures(self):
        simulator = make_simulator()
        before = simulator.state_array().sum()
        simulator.run(5)
        after = simulator.state_array().sum()
        assert after == pytest.approx(before)

    def test_variance_shrinks_every_cycle(self):
        simulator = make_simulator()
        simulator.run(8)
        variances = simulator.trace.variances()
        assert all(b <= a for a, b in zip(variances, variances[1:]))

    def test_converges_to_true_average(self):
        values = [float(i) for i in range(50)]
        simulator = make_simulator(values=values)
        simulator.run(40)
        truth = sum(values) / len(values)
        for estimate in simulator.state_array()[:, 0]:
            assert estimate == pytest.approx(truth, rel=1e-6)

    def test_mean_estimate_stays_at_true_average(self):
        simulator = make_simulator()
        simulator.run(5)
        assert simulator.trace.final.mean == pytest.approx(24.5)

    def test_run_returns_trace(self):
        simulator = make_simulator()
        trace = simulator.run(3)
        assert trace is simulator.trace
        assert simulator.cycle_index == 3

    def test_negative_cycles_rejected(self):
        with pytest.raises(ConfigurationError):
            make_simulator().run(-1)


class TestOtherFunctions:
    def test_max_spreads_epidemically(self):
        values = [0.0] * 49 + [99.0]
        simulator = make_simulator(values=values, function=MaxFunction())
        simulator.run(15)
        assert np.all(simulator.state_array() == 99.0)

    def test_push_sum_converges_to_average(self):
        values = [float(i) for i in range(50)]
        simulator = make_simulator(values=values, function=PushSumFunction())
        simulator.run(40)
        truth = sum(values) / len(values)
        for estimate in simulator.function.estimate_array(simulator.state_array()):
            assert estimate == pytest.approx(truth, rel=1e-4)

    def test_push_sum_conserves_total_mass(self):
        simulator = make_simulator(function=PushSumFunction())
        before = simulator.state_array()[:, 0].sum()
        simulator.run(5)
        after = simulator.state_array()[:, 0].sum()
        assert after == pytest.approx(before)


class TestMembershipOperations:
    def test_crash_node_removes_state_and_overlay_entry(self):
        simulator = make_simulator()
        assert simulator.is_participant(3)
        simulator.crash_node(3)
        assert 3 not in simulator.participant_ids()
        assert not simulator.is_participant(3)
        assert not simulator.overlay.contains(3)

    def test_crash_is_idempotent(self):
        simulator = make_simulator()
        simulator.crash_node(3)
        simulator.crash_node(3)
        assert simulator.participant_ids().tolist() == [node for node in range(50) if node != 3]
        assert len(simulator.overlay.node_ids()) == 49

    def test_add_node_waits_for_next_epoch(self):
        simulator = make_simulator(kind="newscast")
        node = simulator.add_node()
        assert node not in simulator.participant_ids()
        assert not simulator.is_participant(node)
        assert simulator.overlay.contains(node)

    def test_non_participants_do_not_skew_estimates(self):
        simulator = make_simulator(values=[10.0] * 50, kind="newscast")
        simulator.add_node()
        simulator.run(3)
        assert simulator.trace.final.mean == pytest.approx(10.0)


class TestTransportEffects:
    def test_total_link_failure_freezes_states(self):
        simulator = make_simulator(transport=TransportModel(link_failure_probability=1.0))
        before = simulator.state_array()
        simulator.run(3)
        assert np.array_equal(simulator.state_array(), before)
        assert simulator.trace.final.completed_exchanges == 0
        assert simulator.trace.final.failed_exchanges == 50

    def test_link_failure_slows_convergence(self):
        fast = make_simulator(seed=11)
        slow = make_simulator(seed=11, transport=TransportModel(link_failure_probability=0.7))
        fast.run(10)
        slow.run(10)
        assert slow.trace.final.variance > fast.trace.final.variance

    def test_response_loss_breaks_sum_conservation(self):
        simulator = make_simulator(
            values=[0.0] * 49 + [1000.0],
            transport=TransportModel(message_loss_probability=0.4),
            seed=13,
        )
        before = simulator.state_array().sum()
        simulator.run(10)
        after = simulator.state_array().sum()
        assert after != pytest.approx(before)

    def test_exchange_accounting(self):
        simulator = make_simulator(transport=TransportModel(link_failure_probability=0.5))
        record = simulator.run_cycle()
        assert record.completed_exchanges + record.failed_exchanges == 50


class TestCostModel:
    def test_contact_counts_mean_close_to_two(self):
        simulator = make_simulator(size=200, degree=10)
        total = 0
        samples = 0
        for _ in range(5):
            simulator.run_cycle()
            counts = simulator.last_cycle_contact_counts
            total += sum(counts.values())
            samples += len(counts)
        assert total / samples == pytest.approx(2.0, abs=0.1)

    def test_every_node_participates_at_least_once_without_failures(self):
        simulator = make_simulator(size=100, degree=8)
        simulator.run_cycle()
        counts = simulator.last_cycle_contact_counts
        assert min(counts.values()) >= 1

    def test_contact_counts_are_the_plan_counts_on_the_engine_streams(self):
        # Without failures every exchange with a peer happens, so each
        # node's count is its appearances in the drawn plan: the cost
        # figure could count on plans alone, with no engine.
        from repro.simulator.sampling import draw_cycle_plan
        from repro.simulator.transport import PERFECT_TRANSPORT

        simulator = make_simulator(size=120, seed=11, degree=8)
        rng = RandomSource(11)
        overlay = build_overlay(TopologySpec("random", degree=8), 120, rng.child("topology"))
        streams = rng.child("sim")
        selection, transport = streams.child("selection"), streams.child("transport")
        participants = np.asarray(overlay.node_ids(), dtype=np.int64)
        for _ in range(4):
            simulator.run_cycle()
            plan = draw_cycle_plan(overlay, participants, selection, PERFECT_TRANSPORT, transport)
            ok = plan.peers >= 0
            expected = np.bincount(
                np.concatenate([plan.initiators[ok], plan.peers[ok]]), minlength=participants.size
            )
            counts = simulator.last_cycle_contact_counts
            assert [counts[node] for node in participants.tolist()] == expected.tolist()
