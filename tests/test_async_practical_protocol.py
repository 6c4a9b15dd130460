"""Protocol-level behaviour of the asynchronous engine.

``tests/test_async_engine.py`` validates :class:`AsyncPracticalSimulator`
statistically against the cycle model.  This module pins the practical
protocol's individual rules on small networks instead:

* the adapters take their state encoding and merge rule from the
  :class:`~repro.core.functions.AggregationFunction` array codec;
* epochs restart on the Δ schedule, every node reports every epoch it
  finishes, and epidemic epoch sync keeps drifting clocks together
  (Sections 4.1 and 4.3);
* crashes, message loss and link failures slow the protocol down
  without breaking it, and the exchange ledger always
  reconciles (Section 4.2);
* joining nodes wait for the next epoch boundary (Section 4.2);
* the public accessors and constructor validate their arguments.
"""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.count import CountArrayFunction, LeaderElection
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction
from repro.simulator.async_engine import (
    AsyncAverageProtocol,
    AsyncCountProtocol,
    AsyncPracticalSimulator,
    build_async_average,
    build_async_count,
)
from repro.simulator.asynchrony import LAN, AsynchronyScenario
from repro.simulator.transport import DelayModel
from repro.topology import TopologySpec, build_overlay
from repro.topology.complete import CompleteOverlay

SIZE = 40


def make_overlay(rng, kind="random", size=SIZE):
    if kind == "complete":
        spec = TopologySpec("complete")
    elif kind == "newscast":
        spec = TopologySpec("newscast", degree=10, params={"vectorized": True})
    else:
        spec = TopologySpec("random", degree=6)
    return build_overlay(spec, size, rng.child("overlay"))


def node_values(size=SIZE):
    return {node: float(node) for node in range(size)}


def truth(size=SIZE):
    return float(np.mean(list(node_values(size).values())))


def build_average(
    seed=5,
    size=SIZE,
    kind="random",
    cycles_per_epoch=25,
    epoch_length=None,
    scenario=LAN,
    values=None,
):
    rng = RandomSource(seed)
    return build_async_average(
        make_overlay(rng, kind, size),
        node_values(size) if values is None else values,
        rng.child("run"),
        scenario,
        epoch_config=EpochConfig(
            cycles_per_epoch=cycles_per_epoch, epoch_length=epoch_length
        ),
    )


def simulator_with(protocol, seed=3, size=SIZE, **options):
    rng = RandomSource(seed)
    return AsyncPracticalSimulator(
        make_overlay(rng, "complete", size),
        protocol,
        EpochConfig(cycles_per_epoch=25),
        rng.child("run"),
        **options,
    )


def ledger_reconciles(stats):
    return stats["ticks"] == (
        stats["no_peer"]
        + stats["dropped"]
        + stats["completed"]
        + stats["response_lost"]
        + stats["stale_refused"]
    )


class TestAdapterCodec:
    """Each merge rule is defined once, in the array codec."""

    def test_average_codec_is_the_average_function(self):
        protocol = AsyncAverageProtocol(node_values(4))
        assert isinstance(protocol.codec(0), AverageFunction)
        assert protocol.begin_epoch(0, np.arange(4), RandomSource(1)) == 1

    def test_average_merge_rows_is_the_codec_merge(self):
        protocol = AsyncAverageProtocol(node_values(4))
        generator = np.random.default_rng(8)
        left = generator.normal(size=(16, 1))
        right = generator.normal(size=(16, 1))
        merged = protocol.merge_rows(0, left, right)
        expected = AverageFunction().merge_arrays(left, right)
        for got, want in zip(merged, expected):
            assert np.array_equal(got, want)
        assert np.array_equal(merged[0], (left + right) / 2.0)

    def test_average_enter_rows_are_local_values(self):
        protocol = AsyncAverageProtocol({0: 1.5, 1: -2.0, 2: 7.0})
        rows = protocol.enter_rows(0, np.array([2, 0]))
        assert rows.shape == (2, 1)
        assert rows[:, 0].tolist() == [7.0, 1.5]

    def test_average_estimates_are_the_codec_estimates(self):
        # No restatement of the codec: the adapter inherits the default.
        assert "estimate_rows" not in vars(AsyncAverageProtocol)
        protocol = AsyncAverageProtocol(node_values(4))
        rows = np.random.default_rng(3).normal(size=(5, 1))
        assert np.array_equal(
            protocol.estimate_rows(0, rows), AverageFunction().estimate_array(rows)
        )
        protocol.report(0, protocol.estimate_rows(0, rows), jumped=False)
        assert protocol.epoch_estimates[0] == rows[:, 0].tolist()

    def test_unvalued_node_enters_with_zero(self):
        protocol = AsyncAverageProtocol({0: 1.0, 1: 2.0})
        rows = protocol.enter_rows(0, np.array([1, 9]))
        assert rows[:, 0].tolist() == [2.0, 0.0]
        assert protocol.value_of(9) == 0.0

    def test_value_of_beyond_table_is_zero(self):
        protocol = AsyncAverageProtocol({0: 1.0})
        assert protocol.value_of(10**6) == 0.0

    def test_set_value_grows_the_table(self):
        protocol = AsyncAverageProtocol({0: 1.0, 1: 2.0, 2: 3.0})
        protocol.set_value(50, 4.0)
        assert protocol.value_of(50) == 4.0
        assert [protocol.value_of(node) for node in range(3)] == [1.0, 2.0, 3.0]
        assert protocol.value_of(49) == 0.0

    def count_protocol(self, target=3.0, size=30):
        election = LeaderElection(concurrent_target=target, estimated_size=float(size))
        protocol = AsyncCountProtocol(election)
        width = protocol.begin_epoch(0, np.arange(size), RandomSource(12))
        return protocol, width

    def test_count_codec_covers_the_elected_leaders(self):
        protocol, width = self.count_protocol()
        leaders = np.asarray(protocol.codec(0).leaders)
        assert leaders.size > 0
        assert isinstance(protocol.codec(0), CountArrayFunction)
        assert width == 2 * leaders.size
        assert protocol.epoch_records()[0].leader_count == leaders.size

    def test_count_enter_rows_mark_only_leaders(self):
        protocol, width = self.count_protocol()
        leaders = np.asarray(protocol.codec(0).leaders)
        nodes = np.arange(30)
        rows = protocol.enter_rows(0, nodes)
        assert rows.shape == (30, width)
        half = leaders.size
        for node in nodes:
            if node in leaders:
                slot = int(np.searchsorted(leaders, node))
                expected = np.zeros(width)
                expected[slot] = expected[half + slot] = 1.0
                assert np.array_equal(rows[node], expected)
            else:
                assert not rows[node].any()

    def test_count_merge_rows_is_the_codec_merge(self):
        protocol, _ = self.count_protocol()
        rows = protocol.enter_rows(0, np.arange(30))
        left, right = rows[:15], rows[15:]
        merged = protocol.merge_rows(0, left, right)
        expected = CountArrayFunction(protocol.codec(0).leaders).merge_arrays(left, right)
        for got, want in zip(merged, expected):
            assert np.array_equal(got, want)

    def test_count_estimates_of_fresh_rows(self):
        protocol, _ = self.count_protocol()
        leaders = np.asarray(protocol.codec(0).leaders)
        estimates = protocol.estimate_rows(0, protocol.enter_rows(0, np.arange(30)))
        # A leader's map holds only its own entry 1.0 (size estimate 1);
        # everyone else's map is empty (no estimate yet).
        assert np.all(estimates[leaders] == 1.0)
        others = np.setdiff1d(np.arange(30), leaders)
        assert np.all(np.isinf(estimates[others]))

    def test_dry_epoch_is_a_zero_leader_codec(self):
        protocol, width = self.count_protocol(target=1e-9)
        assert width == 0
        assert protocol.codec(0).leaders == ()
        rows = protocol.enter_rows(0, np.arange(5))
        assert rows.shape == (5, 0)
        left, right = protocol.merge_rows(0, rows, rows)
        assert left.shape == right.shape == (5, 0)
        assert np.all(np.isinf(protocol.estimate_rows(0, rows)))
        protocol.report(0, protocol.estimate_rows(0, rows), jumped=True)
        record = protocol.epoch_records()[0]
        assert (record.reporters, record.jump_reporters, record.dry) == (5, 5, True)
        assert record.size_estimate == 30.0

    def test_engine_runs_zero_leader_epochs(self):
        rng = RandomSource(2)
        simulator, protocol = build_async_count(
            make_overlay(rng, "random", 30),
            rng.child("run"),
            epoch_config=EpochConfig(cycles_per_epoch=5),
            concurrent_target=1e-9,
        )
        simulator.run(12)
        assert simulator.statistics["completed"] > 0
        records = protocol.epoch_records()
        assert [record.epoch_id for record in records] == [0, 1, 2]
        for record in records:
            assert record.leader_count == 0
            assert record.dry
            assert record.size_estimate == 30.0
        assert records[0].reporters == records[1].reporters == 30


class TestEpochLifecycle:
    @pytest.mark.parametrize("kind", ["complete", "random", "newscast"])
    def test_estimates_converge_within_the_first_epoch(self, kind):
        simulator, _ = build_average(kind=kind, cycles_per_epoch=25)
        simulator.run(24)  # just before the first restart
        estimates = simulator.current_estimates()
        assert estimates.size == SIZE
        assert simulator.active_epochs() == [0]
        for estimate in estimates:
            assert estimate == pytest.approx(truth(), rel=0.02)

    def test_every_node_reports_every_finished_epoch(self):
        simulator, protocol = build_average(cycles_per_epoch=10)
        simulator.run(25)
        assert sorted(protocol.epoch_estimates) == [0, 1]
        for epoch in (0, 1):
            reports = protocol.epoch_estimates[epoch]
            assert len(reports) == SIZE
            # No loss: the epoch's mass is conserved, and it has converged.
            assert np.mean(reports) == pytest.approx(truth(), rel=1e-12)
            for report in reports:
                assert report == pytest.approx(truth(), rel=0.05)

    def test_epoch_identifier_advances(self):
        simulator, _ = build_average(cycles_per_epoch=5)
        simulator.run(17)
        assert all(simulator.epoch_of(node) == 3 for node in range(SIZE))
        assert simulator.active_epochs() == [3]

    def test_without_drift_every_node_restarts_on_schedule(self):
        simulator, _ = build_average(cycles_per_epoch=5)
        simulator.run(17)
        stats = simulator.statistics
        assert stats["restarts"] == 3 * SIZE
        assert stats["sync_jumps"] == 0
        assert stats["stale_refused"] == 0

    def test_explicit_epoch_length_sets_the_restart_pace(self):
        simulator, _ = build_average(cycles_per_epoch=5, epoch_length=8.0)
        simulator.run(17)
        assert simulator.statistics["restarts"] == 2 * SIZE
        assert simulator.epoch_of(0) == 2

    def test_epidemic_sync_keeps_the_epoch_spread_tight(self):
        scenario = LAN.with_overrides(clock_drift=0.05)
        simulator, _ = build_average(cycles_per_epoch=5, scenario=scenario)
        for _ in range(6):
            simulator.run(4)
            epochs = {simulator.epoch_of(node) for node in range(SIZE)}
            assert max(epochs) - min(epochs) <= 1
            assert len(simulator.active_epochs()) <= 2

    def test_drifting_nodes_are_pulled_forward_by_sync(self):
        scenario = LAN.with_overrides(clock_drift=0.05)
        simulator, _ = build_average(cycles_per_epoch=5, scenario=scenario)
        simulator.run(23)
        stats = simulator.statistics
        assert stats["sync_jumps"] > 0
        assert stats["skipped_epochs"] == 0
        assert ledger_reconciles(stats)

    def test_clock_drift_is_tolerated(self):
        scenario = LAN.with_overrides(clock_drift=0.05)
        simulator, _ = build_average(cycles_per_epoch=25, scenario=scenario)
        # Stop before the fastest clock reaches the epoch boundary
        # (25 · 0.95); a restart resets estimates to fresh local values.
        simulator.run(22)
        estimates = simulator.current_estimates()
        assert estimates.size == SIZE
        for estimate in estimates:
            assert estimate == pytest.approx(truth(), rel=0.1)

    def test_set_value_is_picked_up_at_the_next_epoch(self):
        simulator, protocol = build_average(cycles_per_epoch=10)
        simulator.run(3)
        protocol.set_value(0, 1000.0)
        simulator.run(18)  # through the second restart at t = 20
        shifted = truth() + 1000.0 / SIZE
        assert np.mean(protocol.epoch_estimates[0]) == pytest.approx(truth(), rel=1e-12)
        assert np.mean(protocol.epoch_estimates[1]) == pytest.approx(shifted, rel=1e-12)
        assert simulator.current_estimates().mean() == pytest.approx(shifted, rel=1e-12)

    def test_old_epochs_are_released(self):
        simulator, _ = build_average(cycles_per_epoch=5)
        assert simulator.active_epochs() == [0]
        assert simulator.epoch_member_ids(0).tolist() == list(range(SIZE))
        simulator.run(12)
        assert simulator.active_epochs() == [2]
        assert simulator.epoch_member_ids(2).size == SIZE

    def test_membership_views_agree_under_drift_and_churn(self):
        # One per-node epoch vector answers every membership question.
        scenario = LAN.with_overrides(clock_drift=0.05, churn_per_window=2)
        simulator, _ = build_average(kind="newscast", cycles_per_epoch=4, scenario=scenario)
        for _ in range(30):
            simulator.run(1)
            active = simulator.active_ids()
            epochs = simulator.active_epochs()
            members = [simulator.epoch_member_ids(epoch) for epoch in epochs]
            assert np.array_equal(np.sort(np.concatenate(members)), active)
            assert all(simulator.epoch_of(int(node)) == epoch
                       for epoch, ids in zip(epochs, members) for node in ids)
            counts = [ids.size for ids in members]
            dominant = max(zip(counts, epochs))  # newest of the most populated
            assert simulator.trace.final.participant_count == dominant[0]
            assert simulator.current_estimates().size == dominant[0]
            # Only epochs with members, and the newest one, keep state rows.
            assert set(simulator._epoch_states) <= set(epochs) | {max(simulator._epoch_states)}

    def test_dominant_epoch_is_the_newest_of_the_most_populated(self):
        simulator, _ = build_average()
        epoch_of = simulator._epoch_of
        epoch_of[: SIZE // 2], epoch_of[SIZE // 2 :] = 3, 1
        assert simulator._dominant_epoch() == 3
        epoch_of[0] = 1
        assert simulator._dominant_epoch() == 1
        epoch_of[:] = -1
        assert simulator._dominant_epoch() is None

    def test_count_records_every_reporter(self):
        rng = RandomSource(21)
        simulator, protocol = build_async_count(
            make_overlay(rng, "random", 60),
            rng.child("run"),
            LAN,
            epoch_config=EpochConfig(cycles_per_epoch=15),
            concurrent_target=6.0,
        )
        simulator.run(47)
        finished = [record for record in protocol.epoch_records() if record.epoch_id < 3]
        assert [record.epoch_id for record in finished] == [0, 1, 2]
        for record in finished:
            assert record.reporters == 60
            assert record.jump_reporters == 0
            assert record.lead_probability == pytest.approx(6.0 / 60, rel=0.2)
            if not record.dry:
                assert record.min_estimate <= record.mean_estimate <= record.max_estimate


class TestRobustness:
    def test_crashes_do_not_stall_the_protocol(self):
        simulator, _ = build_average(seed=8)
        simulator.crash_nodes(range(10))
        simulator.run(24)
        assert simulator.alive_ids().tolist() == list(range(10, SIZE))
        assert all(simulator.epoch_of(node) == -1 for node in range(10))
        estimates = simulator.current_estimates()
        assert estimates.size == SIZE - 10
        spread = estimates.max() - estimates.min()
        assert spread < (SIZE - 1) * 0.2
        survivors = float(np.mean(np.arange(10, SIZE)))
        assert estimates.mean() == pytest.approx(survivors, rel=1e-12)

    def test_crashed_nodes_stop_ticking(self):
        simulator, _ = build_average(seed=8)
        simulator.run(3)
        # Without drift every node ticks exactly once per window.
        assert simulator.statistics["ticks"] == 3 * SIZE
        simulator.crash_nodes(range(10))
        simulator.run(3)
        assert simulator.statistics["ticks"] == 3 * SIZE + 3 * (SIZE - 10)

    def test_crash_nodes_ignores_unknown_and_dead_ids(self):
        simulator, _ = build_average(seed=8)
        simulator.crash_nodes([-1, 10**6, 3, 3])
        simulator.crash_nodes([3])
        assert simulator.alive_ids().size == SIZE - 1
        assert 3 not in simulator.active_ids()

    def test_crash_nodes_tells_the_overlay_in_input_order_and_draws_nothing(self):
        simulator, _ = build_average(seed=8)
        overlay = simulator.overlay
        removed = []
        remove = overlay.on_node_removed
        overlay.on_node_removed = lambda node: (removed.append(node), remove(node))
        streams = [
            simulator._rng, simulator._selection_rng, simulator._transport_rng,
            simulator._overlay_rng, simulator._drift_rng, simulator._phase_rng,
        ]
        states = [stream.generator.bit_generator.state for stream in streams]
        simulator.crash_nodes(np.array([12, -4, 5, 10**6, 12, 30, 5]))
        simulator.crash_nodes([30, 7])
        simulator.crash_nodes([])
        assert removed == [12, 5, 30, 7]
        assert all(type(node) is int for node in removed)
        assert [stream.generator.bit_generator.state for stream in streams] == states
        assert np.array_equal(
            simulator.alive_ids(), np.setdiff1d(np.arange(SIZE), [5, 7, 12, 30])
        )
        for node in (5, 7, 12, 30):
            assert simulator.epoch_of(node) == -1
            assert np.isinf(simulator._next_tick[node]) and np.isinf(simulator._next_restart[node])

    def test_lone_survivor_finds_no_peer(self):
        simulator, _ = build_average(seed=8, kind="complete")
        simulator.crash_nodes(range(1, SIZE))
        before = dict(simulator.statistics)
        simulator.run(4)
        stats = simulator.statistics
        assert stats["ticks"] - before["ticks"] == 4
        assert stats["no_peer"] - before["no_peer"] == 4
        assert stats["completed"] == before["completed"]
        assert simulator.current_estimates().tolist() == [0.0]

    def test_message_loss_slows_but_does_not_break(self):
        scenario = LAN.with_overrides(message_loss=0.2)
        simulator, _ = build_average(seed=9, scenario=scenario)
        simulator.run(24)
        stats = simulator.statistics
        assert stats["dropped"] > 0 and stats["response_lost"] > 0
        assert ledger_reconciles(stats)
        estimates = simulator.current_estimates()
        assert estimates.min() == pytest.approx(truth(), rel=0.5)
        assert estimates.max() == pytest.approx(truth(), rel=0.5)

    def test_lost_responses_break_mass_conservation(self):
        lossless, _ = build_average(seed=9)
        lossy, _ = build_average(seed=9, scenario=LAN.with_overrides(message_loss=0.2))
        lossless.run(10)
        lossy.run(10)
        assert lossless.trace.final.mean == pytest.approx(truth(), rel=1e-12)
        assert lossy.trace.final.mean != pytest.approx(truth(), rel=1e-6)

    def test_total_message_loss_drops_every_exchange(self):
        scenario = LAN.with_overrides(message_loss=1.0)
        simulator, _ = build_average(seed=9, scenario=scenario)
        simulator.run(5)
        stats = simulator.statistics
        assert stats["completed"] == stats["response_lost"] == 0
        assert stats["dropped"] + stats["no_peer"] == stats["ticks"] == 5 * SIZE
        assert simulator.current_estimates().tolist() == [float(n) for n in range(SIZE)]

    def test_dropped_requests_leave_states_alone(self):
        simulator = simulator_with(
            AsyncAverageProtocol(node_values()),
            seed=9,
            scenario=LAN.with_overrides(message_loss=1.0),
        )
        simulator.run(5)
        assert simulator.statistics["completed"] == 0
        assert simulator.trace.final.variance == simulator.trace.initial.variance

    def test_timeout_shorter_than_any_round_trip_loses_every_response(self):
        rng = RandomSource(4)
        simulator = AsyncPracticalSimulator(
            make_overlay(rng, "complete"),
            AsyncAverageProtocol(node_values()),
            EpochConfig(cycles_per_epoch=25),
            rng.child("run"),
            scenario=LAN.with_overrides(min_delay=0.2, max_delay=0.2, timeout=0.3),
        )
        simulator.run(5)
        stats = simulator.statistics
        assert stats["completed"] == 0
        assert stats["response_lost"] == stats["ticks"] == 5 * SIZE
        # Responders still merged, so the estimates moved anyway.
        assert simulator.trace.final.variance < simulator.trace.initial.variance

    def test_ledger_reconciles_under_churn_and_loss(self):
        scenario = LAN.with_overrides(
            clock_drift=0.02, message_loss=0.1, churn_per_window=2
        )
        simulator, _ = build_average(
            seed=12, kind="newscast", cycles_per_epoch=6, scenario=scenario
        )
        simulator.run(20)
        stats = simulator.statistics
        assert ledger_reconciles(stats)
        records = simulator.trace.records
        assert sum(record.completed_exchanges for record in records) == stats["completed"]
        assert sum(record.failed_exchanges for record in records) == (
            stats["ticks"] - stats["completed"]
        )
        assert simulator.alive_ids().size == SIZE


class TestJoins:
    """Joins on NEWSCAST, the overlay that takes them."""

    def test_joining_node_waits_for_the_next_epoch(self):
        simulator, protocol = build_average(kind="newscast", cycles_per_epoch=8)
        simulator.run(4)
        (joiner,) = simulator.add_nodes(1, RandomSource(77))
        protocol.set_value(joiner, 100.0)
        assert joiner in simulator.alive_ids()
        assert joiner not in simulator.active_ids()
        assert simulator.epoch_of(joiner) == -1
        simulator.run(4)  # up to the boundary at t = 8
        assert simulator.epoch_of(joiner) == -1
        simulator.run(3)
        assert joiner in simulator.active_ids()
        assert simulator.epoch_of(joiner) == simulator.epoch_of(0) == 1

    def test_joiner_contributes_to_the_epoch_it_joins(self):
        simulator, protocol = build_average(kind="newscast", cycles_per_epoch=8)
        simulator.run(4)
        (joiner,) = simulator.add_nodes(1, RandomSource(77))
        protocol.set_value(joiner, 100.0)
        simulator.run(16)
        reports = protocol.epoch_estimates[1]
        assert len(reports) == SIZE + 1
        expected = (sum(node_values().values()) + 100.0) / (SIZE + 1)
        assert np.mean(reports) == pytest.approx(expected, rel=1e-12)

    def test_add_nodes_assigns_fresh_ids(self):
        simulator, _ = build_average(
            kind="newscast", scenario=LAN.with_overrides(clock_drift=0.02)
        )
        first = simulator.add_nodes(2, RandomSource(1))
        second = simulator.add_nodes(1, RandomSource(2))
        assert first == [SIZE, SIZE + 1]
        assert second == [SIZE + 2]
        for node in first + second:
            assert 0.98 <= simulator.clock_rate(node) <= 1.02

    def test_joins_grow_past_the_initial_capacity(self):
        simulator, _ = build_average(kind="newscast", cycles_per_epoch=5)
        joined = simulator.add_nodes(2 * SIZE, RandomSource(3))
        assert joined == list(range(SIZE, 3 * SIZE))
        simulator.run(7)
        assert simulator.active_ids().size == 3 * SIZE
        assert simulator.statistics["activations"] == 3 * SIZE
        assert all(simulator.epoch_of(node) == 1 for node in joined)


class TestAccessorsAndValidation:
    def test_run_rejects_negative_windows(self):
        simulator, _ = build_average()
        with pytest.raises(ConfigurationError):
            simulator.run(-1)

    def test_run_zero_windows_is_a_no_op(self):
        simulator, _ = build_average()
        simulator.run(0)
        assert simulator.window_index == 0
        assert simulator.now == 0.0
        assert [record.cycle for record in simulator.trace.records] == [0]

    def test_record_every_sets_the_trace_cadence(self):
        rng = RandomSource(2)
        simulator = AsyncPracticalSimulator(
            make_overlay(rng, "complete"),
            AsyncAverageProtocol(node_values()),
            EpochConfig(cycles_per_epoch=25),
            rng.child("run"),
            record_every=5,
        )
        simulator.run(12)
        assert [record.cycle for record in simulator.trace.records] == [0, 5, 10, 12]
        assert sum(record.completed_exchanges for record in simulator.trace.records) == (
            simulator.statistics["completed"]
        )

    @pytest.mark.parametrize("record_every", [0, 2.5, 2.0, True])
    def test_record_every_must_be_a_positive_integer(self, record_every):
        # 2.5 used to record windows [0, 5, 10] here while the cycle
        # engines truncated it to 2; every engine now refuses it.
        with pytest.raises(ConfigurationError, match="record_every"):
            simulator_with(AsyncAverageProtocol(node_values()), record_every=record_every)

    def test_negative_clock_drift_rejected(self):
        with pytest.raises(ConfigurationError):
            simulator_with(
                AsyncAverageProtocol(node_values()),
                scenario=LAN.with_overrides(clock_drift=-0.1),
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LAN.with_overrides(clock_drift=math.nan),
            lambda: simulator_with(
                AsyncAverageProtocol(node_values()),
                scenario=AsynchronyScenario(clock_drift=math.nan),
            ),
            lambda: DelayModel(timeout=math.nan),
            lambda: DelayModel(distribution="lognormal", sigma=math.nan),
        ],
        ids=["scenario-drift", "simulator-drift", "timeout", "lognormal-sigma"],
    )
    def test_nan_settings_rejected(self, build):
        # NaN compares false to everything, so "not below zero" let it
        # through: a NaN drift then died inside NumPy's uniform draw and
        # a NaN timeout never fired.
        with pytest.raises(ConfigurationError):
            build()

    def test_empty_overlay_rejected(self):
        overlay = CompleteOverlay(1)
        overlay.on_node_removed(0)
        with pytest.raises(ConfigurationError):
            AsyncPracticalSimulator(
                overlay, AsyncAverageProtocol({}), EpochConfig(), RandomSource(1)
            )

    def test_no_drift_means_perfect_clocks(self):
        simulator = simulator_with(AsyncAverageProtocol(node_values()))
        assert {simulator.clock_rate(node) for node in range(SIZE)} == {1.0}

    def test_accessors_expose_the_configuration(self):
        rng = RandomSource(2)
        overlay = make_overlay(rng, "complete")
        protocol = AsyncAverageProtocol(node_values())
        config = EpochConfig(cycles_per_epoch=7)
        simulator = AsyncPracticalSimulator(overlay, protocol, config, rng.child("run"))
        assert simulator.overlay is overlay
        assert simulator.protocol is protocol
        assert simulator.epoch_config is config
