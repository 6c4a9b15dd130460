"""Epoch-orchestration subsystem: engine equivalence and properties.

The :class:`~repro.simulator.epochs.EpochDriver` runs the full practical
protocol (election → γ COUNT cycles → trimmed reduction → feedback) with
one epoch body on either cycle engine.  Both engines consume the same
child rng streams and the dict/array COUNT merges are bit-identical, so
from one seed they must produce *identical* per-epoch traces — asserted
here over a grid of overlays and failure scenarios, alongside hand-counted
synchronisation events, property tests for the COUNT array kernel, the
batched reduction, the batched election, and the zero-leader regression.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import RandomSource
from repro.core.count import (
    AdaptiveCount,
    CountArrayFunction,
    LeaderElection,
    count_estimate_from_map,
    count_estimates_from_matrix,
)
from repro.core.epoch import EpochConfig
from repro.core.instances import trimmed_size_estimates
from repro.experiments.runner import run_epoched_count
from repro.simulator import (
    CycleSimulator,
    EpochDriver,
    VectorizedCycleSimulator,
    epoch_config_for_accuracy,
)
from repro.simulator.failures import ChurnModel, FailureModel, ProportionalCrashModel
from repro.simulator.transport import TransportModel
from repro.topology import TopologySpec, build_overlay

SIZE = 50
EPOCHS = 3
GAMMA = 6

OVERLAYS = {
    "complete": TopologySpec("complete"),
    "newscast": TopologySpec("newscast", degree=8, params={"vectorized": True}),
    "newscast-dict": TopologySpec("newscast", degree=8, params={"vectorized": False}),
}

#: The cycle engines, named by class, with the test ids of their roles.
ENGINES = [
    pytest.param(CycleSimulator, id="reference"),
    pytest.param(VectorizedCycleSimulator, id="vectorized"),
]


class ReferenceEpochDriver(EpochDriver):
    """The epoch driver with every epoch on the reference engine."""

    _simulator = CycleSimulator


DRIVERS = [
    pytest.param(ReferenceEpochDriver, id="reference"),
    pytest.param(EpochDriver, id="vectorized"),
]

SCENARIOS = {
    "none": (TransportModel(), None),
    "crash": (TransportModel(), lambda epoch_id: ProportionalCrashModel(0.05)),
    "message-loss": (TransportModel(message_loss_probability=0.2), None),
}


def build_driver(
    driver_class,
    overlay_key="complete",
    scenario_key="none",
    seed=17,
    size=SIZE,
    config=None,
    concurrent_target=5.0,
    initial_estimate=None,
):
    transport, failure_factory = SCENARIOS[scenario_key]
    rng = RandomSource(seed)
    overlay = build_overlay(OVERLAYS[overlay_key], size, rng.child("topology"))
    election = LeaderElection(
        concurrent_target=concurrent_target,
        estimated_size=float(initial_estimate if initial_estimate is not None else size),
    )
    return driver_class(
        overlay=overlay,
        election=election,
        epoch_config=config or EpochConfig(cycles_per_epoch=GAMMA),
        rng=rng.child("driver"),
        transport=transport,
        failure_factory=failure_factory,
    )


def assert_records_identical(reference, vectorized, label):
    assert len(reference.records) == len(vectorized.records), label
    for expected, actual in zip(reference.records, vectorized.records):
        for field in (
            "epoch_id",
            "leader_count",
            "lead_probability",
            "participant_count",
            "joined_count",
            "advanced_count",
            "skipped_sync_count",
            "dry",
            "reporters",
            "jump_reporters",
            "finite_reporters",
        ):
            assert getattr(expected, field) == getattr(actual, field), (
                f"{label}: {field} diverged at epoch {expected.epoch_id}"
            )
        # Bit-identical, not approximately equal: both drivers feed the
        # same states through the same batched reduction.
        for field in (
            "estimate_sum", "mean_estimate", "size_estimate", "min_estimate", "max_estimate",
        ):
            assert getattr(expected, field) == getattr(actual, field), (
                f"{label}: {field} diverged at epoch {expected.epoch_id}"
            )


class TestEpochDriverEquivalence:
    @pytest.mark.parametrize("overlay_key", sorted(OVERLAYS))
    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    def test_same_seed_same_epoch_trace(self, overlay_key, scenario_key):
        label = f"{overlay_key}/{scenario_key}"
        reference = build_driver(ReferenceEpochDriver, overlay_key, scenario_key)
        vectorized = build_driver(EpochDriver, overlay_key, scenario_key)
        assert_records_identical(
            reference.run(EPOCHS), vectorized.run(EPOCHS), label
        )

    def test_churn_joiners_sync_identically(self):
        def run(driver_class):
            rng = RandomSource(9)
            overlay = build_overlay(OVERLAYS["newscast"], SIZE, rng.child("topology"))
            election = LeaderElection(concurrent_target=5.0, estimated_size=float(SIZE))
            driver = driver_class(
                overlay,
                election,
                EpochConfig(cycles_per_epoch=GAMMA),
                rng.child("driver"),
                failure_factory=lambda epoch_id: ChurnModel(2),
            )
            return driver, driver.run(EPOCHS)

        reference, reference_result = run(ReferenceEpochDriver)
        vectorized, vectorized_result = run(EpochDriver)
        assert_records_identical(reference_result, vectorized_result, "churn")
        # Every epoch after the first syncs the churned-in nodes.
        assert all(
            record.joined_count == 2 * GAMMA
            for record in vectorized_result.records[1:]
        )
        # The per-node epoch bookkeeping agrees across engines too.
        assert reference.node_epoch_ids() == vectorized.node_epoch_ids()

    @pytest.mark.parametrize("driver_class", DRIVERS)
    def test_short_epoch_length_skips_identifiers(self, driver_class):
        # Δ = γ·δ / 2: the nominal schedule advances two epochs per run,
        # so the synchronisation pass observes multi-epoch jumps.
        config = EpochConfig(cycle_length=1.0, cycles_per_epoch=GAMMA, epoch_length=GAMMA / 2)
        driver = build_driver(driver_class, config=config)
        result = driver.run(3)
        assert [record.epoch_id for record in result.records] == [0, 2, 4]
        assert all(
            record.skipped_sync_count == record.advanced_count > 0
            for record in result.records[1:]
        )

    def test_skipped_identifier_counts_match_across_engines(self):
        config = EpochConfig(cycle_length=1.0, cycles_per_epoch=GAMMA, epoch_length=GAMMA / 2)
        reference = build_driver(ReferenceEpochDriver, config=config).run(3)
        vectorized = build_driver(EpochDriver, config=config).run(3)
        assert_records_identical(reference, vectorized, "skipping")

    def test_feedback_corrects_wrong_initial_estimate(self):
        driver = build_driver(
            EpochDriver, size=80, initial_estimate=20.0, concurrent_target=8.0,
            config=EpochConfig(cycles_per_epoch=12),
        )
        result = driver.run(3)
        # First election used the wrong N^ (P_lead = 8/20), later ones the
        # corrected estimate (P_lead ~ 8/80).
        assert result.records[0].lead_probability == pytest.approx(8 / 20)
        assert result.records[-1].lead_probability < 0.15
        assert result.final_estimate == pytest.approx(80, rel=0.15)
        assert driver.election.estimated_size == result.final_estimate

    def test_records_count_sync_events_and_reporters(self):
        result = build_driver(EpochDriver).run(EPOCHS)
        records = result.records
        assert sum(record.joined_count for record in records) == SIZE
        assert sum(record.advanced_count for record in records) == (EPOCHS - 1) * SIZE
        # Nobody fails, so every participant reports once, at the epoch's end.
        for record in records:
            assert record.participant_count == record.reporters == SIZE
            assert record.jump_reporters == 0
            assert not record.dry
        assert result.final_estimate == records[-1].size_estimate


class ScriptedMembership(FailureModel):
    """Before an epoch's first cycle, crash the lowest-id participants and
    add non-participating joiners — a membership change counted by hand."""

    def __init__(self, crashes, joins):
        self.crashes = crashes
        self.joins = joins

    def apply(self, simulator, cycle_index, rng):
        if cycle_index != 1:
            return
        for victim in simulator.participant_ids()[: self.crashes].tolist():
            simulator.crash_node(victim)
        for _ in range(self.joins):
            simulator.add_node()


class TestSynchronisationCounts:
    # 20 nodes (ids 0..19).  Epoch 1 crashes 0, 1, 2 and adds joiners
    # 20..24; epoch 2 crashes 3, 4; epoch 3 changes nothing.  So epoch 2
    # syncs ids 3..24 (5 fresh, 17 advancing) and epoch 3 ids 5..24.
    @pytest.mark.parametrize("driver_class", DRIVERS)
    @pytest.mark.parametrize(
        "epoch_length, epoch_ids, skipped",
        [(None, [0, 1, 2], [0, 0, 0]), (GAMMA / 2, [0, 2, 4], [0, 17, 20])],
    )
    def test_crashes_and_churn_joins(self, driver_class, epoch_length, epoch_ids, skipped):
        script = iter([(3, 5), (2, 0), (0, 0)])
        rng = RandomSource(21)
        driver = driver_class(
            build_overlay(OVERLAYS["newscast"], 20, rng.child("topology")),
            LeaderElection(concurrent_target=5.0, estimated_size=20.0),
            EpochConfig(cycles_per_epoch=GAMMA, epoch_length=epoch_length),
            rng.child("driver"),
            failure_factory=lambda epoch_id: ScriptedMembership(*next(script)),
        )
        records = driver.run(3).records
        assert [record.epoch_id for record in records] == epoch_ids
        assert [record.participant_count for record in records] == [20, 22, 20]
        assert [record.joined_count for record in records] == [20, 5, 0]
        assert [record.advanced_count for record in records] == [0, 17, 20]
        assert [record.skipped_sync_count for record in records] == skipped
        assert driver.node_epoch_ids() == {node: epoch_ids[-1] for node in range(5, 25)}


class TestZeroLeaderEpoch:
    @pytest.mark.parametrize("driver_class", DRIVERS)
    def test_dry_epoch_carries_estimate_forward(self, driver_class):
        # P_lead = 0.01 / 10^9: a seeded rng elects nobody, every map
        # stays empty, and the epoch must report nothing instead of
        # corrupting the running estimate.
        driver = build_driver(
            driver_class, size=20, concurrent_target=0.01, initial_estimate=1e9,
            config=EpochConfig(cycles_per_epoch=4),
        )
        result = driver.run(2)
        assert [record.epoch_id for record in result.records if record.dry] == [0, 1]
        for record in result.records:
            assert record.leader_count == 0
            assert record.reporters == 20
            assert record.finite_reporters == 0
            assert record.mean_estimate == math.inf
            assert record.size_estimate == 1e9  # deterministic carry-forward
            assert (record.min_estimate, record.max_estimate) == (math.inf, -math.inf)
        assert driver.election.estimated_size == 1e9  # update never fed
        assert result.final_estimate == 1e9

    def test_dry_epoch_still_advances_failures_and_recovery_works(self):
        # Epoch 0 is dry, churn still runs during it, and a later epoch
        # with leaders recovers a real estimate.
        rng = RandomSource(31)
        overlay = build_overlay(OVERLAYS["newscast"], 40, rng.child("t"))
        election = LeaderElection(concurrent_target=0.01, estimated_size=1e9)
        driver = EpochDriver(
            overlay,
            election,
            EpochConfig(cycles_per_epoch=5),
            rng.child("d"),
            failure_factory=lambda epoch_id: ChurnModel(1),
        )
        first = driver.run(1).records[0]
        assert first.dry
        # Churn ran through the zero-leader epoch: nodes were substituted.
        assert sorted(driver.overlay.node_ids())[-1] >= 40
        # Force a populated epoch by fixing the estimate.
        election.concurrent_target = 5.0
        election.estimated_size = 40.0
        second = driver.run(1).records[-1]
        assert not second.dry
        assert second.joined_count == 5  # the churned-in nodes synced
        assert math.isfinite(second.size_estimate)

    def test_dry_then_populated_matches_across_engines(self):
        def run(driver_class):
            rng = RandomSource(13)
            overlay = build_overlay(OVERLAYS["complete"], 30, rng.child("t"))
            election = LeaderElection(concurrent_target=0.01, estimated_size=1e9)
            driver = driver_class(
                overlay, election, EpochConfig(cycles_per_epoch=4), rng.child("d")
            )
            driver.run(1)
            election.concurrent_target = 4.0
            election.estimated_size = 30.0
            return driver.run(2)

        assert_records_identical(run(ReferenceEpochDriver), run(EpochDriver), "dry-recovery")


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: EpochConfig(cycle_length=math.inf),
            lambda: EpochConfig(epoch_length=math.inf),
            lambda: LeaderElection(concurrent_target=math.inf, estimated_size=200.0),
            lambda: run_epoched_count(
                OVERLAYS["complete"], 20, 3, RandomSource(1), initial_estimate=math.inf
            ),
        ],
        ids=["cycle-length", "epoch-length", "concurrent-target", "initial-estimate"],
    )
    def test_rejected(self, build):
        # An infinite δ overflowed inside the async engine, N̂ = inf made
        # every epoch dry with P_lead = 0, and C = inf elected everyone.
        with pytest.raises(ConfigurationError):
            build()


class TestZeroLeaderCodec:
    """A dry epoch is the empty leader universe: width-0 rows everywhere."""

    def test_initial_merge_estimate_and_reduction(self):
        function = CountArrayFunction([])
        assert function.leaders == ()
        assert function.state_width() == 0
        assert function.initial_state(-1) == {}
        assert function.merge({}, {}) == ({}, {})
        assert function.estimate({}) is None
        assert function.leader_values(np.arange(4)).tolist() == [-1.0] * 4
        rows = function.initial_state_array(function.leader_values(np.arange(4)))
        assert rows.shape == (4, 0)
        assert all(block.shape == (4, 0) for block in function.merge_arrays(rows, rows))
        assert np.isnan(function.estimate_array(rows)).all()
        assert np.isinf(count_estimates_from_matrix(rows, rows)).all()
        # Nobody can claim to lead an empty universe.
        with pytest.raises(ProtocolError):
            function.initial_state(3)
        with pytest.raises(ProtocolError):
            function.initial_state_array(np.array([3.0]))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cycle_engines_run_and_reduce_width_zero_rows(self, engine):
        rng = RandomSource(4)
        ids = list(range(12))
        count = AdaptiveCount(LeaderElection(concurrent_target=1e-9, estimated_size=12.0))
        function = count.open_epoch(0, ids, rng.child("election"))
        assert function.leaders == ()
        simulator = engine(
            build_overlay(OVERLAYS["complete"], 12, rng.child("t")),
            function,
            dict(zip(ids, function.leader_values(ids).tolist())),
            rng.child("s"),
        )
        simulator.run(3)
        assert simulator.trace.final.completed_exchanges > 0
        block = simulator.state_array()
        assert block.shape == (12, 0)
        record = count.report(0, count.estimate_rows(0, block))
        assert (record.reporters, record.finite_reporters, record.dry) == (12, 0, True)
        assert record.size_estimate == 12.0


class TestCountArrayFunction:
    @st.composite
    def random_map_pair(draw):
        leaders = draw(
            st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=12, unique=True)
        )
        values = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)

        def one_map():
            subset = draw(st.lists(st.sampled_from(leaders), max_size=len(leaders), unique=True))
            return {leader: draw(values) for leader in subset}

        return leaders, one_map(), one_map()

    @settings(max_examples=60, deadline=None)
    @given(data=random_map_pair())
    def test_array_kernel_matches_dict_merge(self, data):
        leaders, map_a, map_b = data
        function = CountArrayFunction(leaders)
        merged_dict, other = function.merge(map_a, map_b)
        assert merged_dict == other
        rows_a = function.encode_state(map_a)[None, :]
        rows_b = function.encode_state(map_b)[None, :]
        out_a, out_b = function.merge_arrays(rows_a, rows_b)
        # Both peers install the same map, bit-identical to the dict rule.
        expected = function.encode_state(merged_dict)
        assert np.array_equal(out_a[0], expected)
        assert np.array_equal(out_b[0], expected)

    @settings(max_examples=60, deadline=None)
    @given(data=random_map_pair())
    def test_merge_conserves_total_mass(self, data):
        leaders, map_a, map_b = data
        function = CountArrayFunction(leaders)
        rows = np.vstack([function.encode_state(map_a), function.encode_state(map_b)])
        before = rows[:, : len(function.leaders)].sum()
        out_a, out_b = function.merge_arrays(rows[:1], rows[1:])
        after = out_a[:, : len(function.leaders)].sum() + out_b[:, : len(function.leaders)].sum()
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_codec_roundtrip_and_estimates(self):
        function = CountArrayFunction([4, 9, 2])
        assert function.leaders == (2, 4, 9)
        state = {9: 0.25, 2: 0.5}
        row = function.encode_state(state)
        assert row.tolist() == [0.5, 0.0, 0.25, 1.0, 0.0, 1.0]
        assert function.estimate(state) == pytest.approx(0.375)
        batch = np.vstack([row, function.encode_state({})])
        estimates = function.estimate_array(batch)
        assert estimates[0] == pytest.approx(0.375)
        assert math.isnan(estimates[1])

    def test_initial_states_scalar_and_array_agree(self):
        function = CountArrayFunction([3, 7])
        assert function.initial_state(-1) == {}
        assert function.initial_state(None) == {}
        assert function.initial_state(7) == {7: 1.0}
        block = function.initial_state_array(np.array([3.0, -1.0, 7.0]))
        for row, state in zip(block, ({3: 1.0}, {}, {7: 1.0})):
            assert np.array_equal(row, function.encode_state(state))

    def test_unknown_leader_rejected(self):
        function = CountArrayFunction([3, 7])
        with pytest.raises(ProtocolError):
            function.initial_state(5)
        with pytest.raises(ProtocolError):
            function.initial_state_array(np.array([5.0]))
        with pytest.raises(ProtocolError):
            function.encode_state({5: 1.0})

    def test_fast_path_dispatch_and_engine_state_parity(self):
        leaders = [0, 7, 23]

        def build(engine):
            rng = RandomSource(4)
            overlay = build_overlay(OVERLAYS["complete"], 40, rng.child("t"))
            function = CountArrayFunction(leaders)
            values = {
                node: (float(node) if node in leaders else -1.0) for node in range(40)
            }
            return engine(overlay, function, values, rng.child("s"))

        reference = build(CycleSimulator)
        vectorized = build(VectorizedCycleSimulator)
        assert isinstance(reference, CycleSimulator)
        assert isinstance(vectorized, VectorizedCycleSimulator)
        reference.run(5)
        vectorized.run(5)
        # The array rows encode the very dicts the reference built.
        assert np.array_equal(reference.state_array(), vectorized.state_array())


class TestBatchedReduction:
    @st.composite
    def random_maps(draw):
        leaders = draw(
            st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10, unique=True)
        )
        values = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
        count = draw(st.integers(min_value=1, max_value=8))
        maps = []
        for _ in range(count):
            subset = draw(st.lists(st.sampled_from(leaders), max_size=len(leaders), unique=True))
            maps.append({leader: draw(values) for leader in subset})
        return leaders, maps

    @settings(max_examples=60, deadline=None)
    @given(data=random_maps())
    def test_matrix_reduction_matches_scalar(self, data):
        leaders, maps = data
        function = CountArrayFunction(leaders)
        block = np.vstack([function.encode_state(state) for state in maps])
        width = len(function.leaders)
        batched = count_estimates_from_matrix(block[:, :width], block[:, width:])
        scalar = [count_estimate_from_map(state) for state in maps]
        for row, expected in zip(batched, scalar):
            if math.isinf(expected):
                assert math.isinf(row)
            else:
                assert row == pytest.approx(expected, rel=1e-12)

    def test_multi_instance_array_reduction_matches_scalar(self):
        rng = RandomSource(12)
        block = np.abs(rng.generator.normal(size=(30, 9))) / 30.0
        batched = trimmed_size_estimates(block)
        for row, state in zip(batched, block):
            assert row == pytest.approx(
                count_estimate_from_map(dict(enumerate(state))), rel=1e-12
            )
        with pytest.raises(ConfigurationError):
            trimmed_size_estimates(np.zeros(4))


class TestBatchedElection:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        target=st.floats(min_value=0.5, max_value=50.0),
        size=st.integers(min_value=1, max_value=300),
    )
    def test_elect_batch_matches_scalar_elect(self, seed, target, size):
        election = LeaderElection(concurrent_target=target, estimated_size=100.0)
        node_ids = list(range(0, 2 * size, 2))
        scalar = election.elect(node_ids, RandomSource(seed))
        batched = election.elect_batch(node_ids, RandomSource(seed))
        assert scalar == [int(node) for node in batched]

    def test_degenerate_probabilities_consume_no_randomness(self):
        ids = list(range(10))
        certain = LeaderElection(concurrent_target=20.0, estimated_size=10.0)
        assert certain.lead_probability == 1.0
        assert list(certain.elect_batch(ids, RandomSource(0))) == ids


class TestEpochConfigForAccuracy:
    def test_gamma_from_accuracy(self):
        config = epoch_config_for_accuracy(1e-6, convergence_factor=0.1)
        assert config.cycles_per_epoch == 6
        assert config.effective_epoch_length == 6.0

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ConfigurationError):
            epoch_config_for_accuracy(2.0)
