"""Fast-path / reference engine equivalence and vectorized-engine tests.

Both cycle engines consume their randomness through the shared cycle-plan
discipline, so a given root seed must produce the *same* exchange schedule
— and therefore (up to floating-point summation order) the same per-cycle
trace — in either engine.  These tests sweep every supported function ×
overlay × failure combination, plus property-based mass conservation,
``make_simulator`` being the array engine, ``record_every`` and the
conflict-round scheduler itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
import repro.core
from repro.core.count import CountArrayFunction, peak_initial_values
from repro.core.protocol import AGGREGATES
from repro.core.functions import (
    AverageFunction,
    GeometricMeanFunction,
    MaxFunction,
    MinFunction,
    PushSumFunction,
    VectorFunction,
)
from repro.simulator import (
    ChurnModel,
    CountCrashModel,
    CycleSimulator,
    ProportionalCrashModel,
    SuddenDeathModel,
    TransportModel,
    VectorizedCycleSimulator,
    make_simulator,
)
from repro.simulator.sampling import ordered_conflict_rounds
from repro.topology import TopologySpec, build_overlay


SIZE = 60
CYCLES = 8

#: The cycle engines, named by class, with the test ids of their roles.
ENGINES = [
    pytest.param(CycleSimulator, id="reference"),
    pytest.param(VectorizedCycleSimulator, id="vectorized"),
]

OVERLAYS = {
    "complete": TopologySpec("complete"),
    "random": TopologySpec("random", degree=6),
    "watts-strogatz": TopologySpec("watts-strogatz", degree=6, beta=0.25),
    # The array-native NEWSCAST overlay supports batched peer selection,
    # so it takes part in the full bit-level engine-equivalence grid
    # (tests/test_newscast_vectorized.py adds the overlay-level suite).
    "newscast-array": TopologySpec("newscast", degree=8, params={"vectorized": True}),
    # The dict NEWSCAST oracle answers the same batched draw, so it runs on
    # both engines too (one function, every scenario: see below).
    "newscast-dict": TopologySpec("newscast", degree=8, params={"vectorized": False}),
}
GRID_OVERLAYS = sorted(set(OVERLAYS) - {"newscast-dict"})

SCENARIOS = {
    "perfect": (TransportModel(), None),
    "message-loss": (TransportModel(message_loss_probability=0.2), None),
    "link-failure": (TransportModel(link_failure_probability=0.3), None),
    "crashes": (TransportModel(), lambda: ProportionalCrashModel(0.05)),
    "count-crashes": (TransportModel(), lambda: CountCrashModel(2)),
    "churn": (TransportModel(), lambda: ChurnModel(2)),
    "sudden-death": (TransportModel(), lambda: SuddenDeathModel(0.5, at_cycle=3)),
}
#: Churn adds nodes, so it runs only on the grid overlay that takes joins.
GRID = [
    (scenario_key, overlay_key)
    for scenario_key in sorted(SCENARIOS)
    for overlay_key in GRID_OVERLAYS
    if scenario_key != "churn" or overlay_key == "newscast-array"
]

FUNCTIONS = {
    "average": (AverageFunction, lambda size: [float(i) for i in range(size)]),
    "count-peak": (AverageFunction, lambda size: peak_initial_values(size)),
    "push-sum": (PushSumFunction, lambda size: [float(i) for i in range(size)]),
    "min": (MinFunction, lambda size: [float(i % 7) for i in range(size)]),
    "max": (MaxFunction, lambda size: [float(i % 7) for i in range(size)]),
}


def build_engine(engine, function_key, overlay_key, scenario_key, seed=11):
    function_class, values_for = FUNCTIONS[function_key]
    transport, failure_factory = SCENARIOS[scenario_key]
    rng = RandomSource(seed)
    overlay = build_overlay(OVERLAYS[overlay_key], SIZE, rng.child("topology"))
    return engine(
        overlay=overlay,
        function=function_class(),
        initial_values=values_for(SIZE),
        rng=rng.child("simulation"),
        transport=transport,
        failure_model=failure_factory() if failure_factory else None,
    )


def assert_traces_match(reference, vectorized, label):
    assert len(reference.trace) == len(vectorized.trace), label
    for expected, actual in zip(reference.trace, vectorized.trace):
        assert expected.cycle == actual.cycle, label
        assert expected.participant_count == actual.participant_count, label
        assert expected.completed_exchanges == actual.completed_exchanges, label
        assert expected.failed_exchanges == actual.failed_exchanges, label
        for field in ("mean", "variance", "minimum", "maximum"):
            expected_value = getattr(expected, field)
            actual_value = getattr(actual, field)
            if math.isnan(expected_value) and math.isnan(actual_value):
                continue
            assert actual_value == pytest.approx(
                expected_value, rel=1e-9, abs=1e-12
            ), f"{label}: {field} diverged at cycle {expected.cycle}"


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "scenario_key, overlay_key", GRID, ids=["-".join(cell) for cell in GRID]
    )
    @pytest.mark.parametrize("function_key", ["average", "count-peak", "push-sum"])
    def test_same_seed_same_trace(self, function_key, overlay_key, scenario_key):
        label = f"{function_key}/{overlay_key}/{scenario_key}"
        reference = build_engine(CycleSimulator, function_key, overlay_key, scenario_key)
        vectorized = build_engine(VectorizedCycleSimulator, function_key, overlay_key, scenario_key)
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        assert_traces_match(reference, vectorized, label)

    @pytest.mark.parametrize("function_key", sorted(FUNCTIONS))
    def test_states_bitwise_identical(self, function_key):
        reference = build_engine(CycleSimulator, function_key, "random", "perfect")
        vectorized = build_engine(VectorizedCycleSimulator, function_key, "random", "perfect")
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        assert np.array_equal(reference.state_array(), vectorized.state_array())

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    def test_dict_newscast_states_bitwise_identical(self, scenario_key):
        reference, vectorized = (
            build_engine(engine, "average", "newscast-dict", scenario_key)
            for engine in (CycleSimulator, VectorizedCycleSimulator)
        )
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        assert_traces_match(reference, vectorized, f"newscast-dict/{scenario_key}")
        assert np.array_equal(reference.state_array(), vectorized.state_array())

    @pytest.mark.parametrize("overlay_key", ["newscast-array", "newscast-dict"])
    def test_stale_descriptor_past_the_highest_live_id(self, overlay_key):
        # The top ids crash before the engine exists, so its rows stop
        # below them while caches still name them: a dead peer, never an
        # index past the block.
        def build(engine):
            rng = RandomSource(3)
            overlay = build_overlay(OVERLAYS[overlay_key], SIZE, rng.child("topology"))
            for node in (SIZE - 1, SIZE - 2):
                overlay.on_node_removed(node)
            return engine(
                overlay,
                AverageFunction(),
                [float(i) for i in range(SIZE - 2)],
                rng.child("simulation"),
            )

        reference = build(CycleSimulator)
        vectorized = build(VectorizedCycleSimulator)
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        assert sum(record.failed_exchanges for record in vectorized.trace) > 0
        assert_traces_match(reference, vectorized, f"stale/{overlay_key}")
        assert np.array_equal(reference.state_array(), vectorized.state_array())

    def test_membership_parity_under_churn(self):
        reference = build_engine(CycleSimulator, "average", "newscast-array", "churn")
        vectorized = build_engine(VectorizedCycleSimulator, "average", "newscast-array", "churn")
        reference.run(5)
        vectorized.run(5)
        assert np.array_equal(reference.participant_ids(), vectorized.participant_ids())
        # Crashed nodes left both overlays; joiners wait in both.
        assert sorted(reference.overlay.node_ids()) == sorted(
            vectorized.overlay.node_ids()
        )
        assert np.array_equal(reference.state_array(), vectorized.state_array())

    def test_vector_function_equivalence(self):
        def build(engine):
            rng = RandomSource(5)
            overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("topology"))
            return engine(
                overlay,
                VectorFunction([AverageFunction(), MinFunction(), PushSumFunction()]),
                [float(i) for i in range(SIZE)],
                rng.child("simulation"),
            )

        reference = build(CycleSimulator)
        vectorized = build(VectorizedCycleSimulator)
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        assert_traces_match(reference, vectorized, "vector-function")
        assert np.array_equal(reference.state_array(), vectorized.state_array())

    def test_single_component_vector_function_runs_on_fast_path(self):
        # Regression: a width-1 VectorFunction slices columns in its
        # merge, so it must not be handed the flat state column.
        rng = RandomSource(8)
        overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
        simulator = make_simulator(
            overlay,
            VectorFunction([AverageFunction()]),
            [float(i) for i in range(SIZE)],
            rng.child("s"),
        )
        simulator.run(5)
        assert simulator.trace.final.mean == pytest.approx((SIZE - 1) / 2)


class TestMassConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=4,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_vectorized_average_conserves_sum(self, values, seed):
        rng = RandomSource(seed)
        overlay = build_overlay(TopologySpec("complete"), len(values), rng.child("t"))
        simulator = make_simulator(overlay, AverageFunction(), values, rng.child("s"))
        before = simulator.state_array().sum()
        simulator.run(5)
        after = simulator.state_array().sum()
        assert after == pytest.approx(before, rel=1e-9, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_vectorized_push_sum_conserves_mass(self, seed):
        rng = RandomSource(seed)
        overlay = build_overlay(TopologySpec("random", degree=4), 30, rng.child("t"))
        simulator = make_simulator(
            overlay,
            PushSumFunction(),
            [float(i) for i in range(30)],
            rng.child("s"),
        )
        # Column 0 holds the values, whose sum is push-sum's conserved mass.
        before = simulator.state_array()[:, 0].sum()
        simulator.run(5)
        after = simulator.state_array()[:, 0].sum()
        assert after == pytest.approx(before, rel=1e-9)


class TestDispatch:
    def test_default_engine_is_vectorized(self):
        rng = RandomSource(3)
        overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
        assert make_simulator is VectorizedCycleSimulator
        simulator = make_simulator(overlay, AverageFunction(), [1.0] * SIZE, rng.child("s"))
        assert isinstance(simulator, VectorizedCycleSimulator)

    def test_reference_engine_runs_map_based_count(self):
        rng = RandomSource(3)
        overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
        simulator = CycleSimulator(
            overlay,
            CountArrayFunction(range(SIZE)),
            {node: ({node: 1.0} if node < 3 else {}) for node in range(SIZE)},
            rng.child("s"),
        )
        simulator.run(2)
        # The first SIZE columns hold the per-leader values: the total mass.
        assert simulator.state_array()[:, :SIZE].sum() == pytest.approx(3.0)


#: One instance of every aggregation function the core exports, with
#: initial values for SIZE nodes.
CORE_FUNCTIONS = {
    "AverageFunction": (AverageFunction(), [float(i) for i in range(SIZE)]),
    "MinFunction": (MinFunction(), [float(i % 7) for i in range(SIZE)]),
    "MaxFunction": (MaxFunction(), [float(i % 7) for i in range(SIZE)]),
    "GeometricMeanFunction": (GeometricMeanFunction(), [1.0 + i for i in range(SIZE)]),
    "PushSumFunction": (PushSumFunction(), [float(i) for i in range(SIZE)]),
    "VectorFunction": (
        VectorFunction([AverageFunction(), MaxFunction()]), [float(i) for i in range(SIZE)]
    ),
    "CountArrayFunction": (
        CountArrayFunction([0, 7, 23]),
        [float(i) if i in (0, 7, 23) else -1.0 for i in range(SIZE)],
    ),
}


class TestEveryFunctionOnEveryEngine:
    def test_the_table_covers_every_core_function(self):
        exported = {
            name
            for name in repro.core.__all__
            if isinstance(getattr(repro.core, name), type)
            and issubclass(getattr(repro.core, name), repro.core.AggregationFunction)
            and name != "AggregationFunction"
        }
        assert exported == set(CORE_FUNCTIONS)

    @pytest.mark.parametrize("name", sorted(CORE_FUNCTIONS))
    def test_runs_on_both_engines_with_identical_states(self, name):
        function, values = CORE_FUNCTIONS[name]

        def build(engine):
            rng = RandomSource(6)
            overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
            return engine(
                overlay, function, values, rng.child("s"),
                transport=TransportModel(message_loss_probability=0.2),
            )

        reference = build(CycleSimulator)
        vectorized = build(VectorizedCycleSimulator)
        reference.run(4)
        vectorized.run(4)
        assert np.array_equal(reference.state_array(), vectorized.state_array())

    @pytest.mark.parametrize("kind", [*AGGREGATES, "count-map"])
    def test_state_array_bit_identical_across_engines(self, kind):
        if kind == "count-map":
            function, values = CORE_FUNCTIONS["CountArrayFunction"]
        else:
            record = AGGREGATES[kind]
            function = record.function
            values = record.initial(np.arange(1.0, SIZE + 1)).tolist()

        def build(engine):
            rng = RandomSource(2004)
            overlay = build_overlay(OVERLAYS["newscast-array"], SIZE, rng.child("t"))
            return engine(
                overlay, function, values, rng.child("s"),
                transport=TransportModel(message_loss_probability=0.1),
                failure_model=ChurnModel(2),
            )

        reference = build(CycleSimulator)
        vectorized = build(VectorizedCycleSimulator)
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        expected = reference.state_array()
        actual = vectorized.state_array()
        assert expected.shape == actual.shape == (
            len(reference.participant_ids()), function.state_width()
        )
        assert expected.tobytes() == actual.tobytes()


class TestRecordEvery:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_records_sampled_cycles_and_final(self, engine):
        rng = RandomSource(4)
        overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
        simulator = engine(
            overlay,
            AverageFunction(),
            [float(i) for i in range(SIZE)],
            rng.child("s"),
            record_every=3,
        )
        simulator.run(7)
        assert simulator.trace.cycles() == [0, 3, 6, 7]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_skipped_cycles_accumulate_exchange_counters(self, engine):
        def build(record_every):
            rng = RandomSource(4)
            overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
            return engine(
                overlay,
                AverageFunction(),
                [float(i) for i in range(SIZE)],
                rng.child("s"),
                transport=TransportModel(link_failure_probability=0.3),
                record_every=record_every,
            )

        dense = build(1)
        sparse = build(4)
        dense.run(8)
        sparse.run(8)
        for counter in ("completed_exchanges", "failed_exchanges"):
            assert sum(getattr(record, counter) for record in dense.trace) == sum(
                getattr(record, counter) for record in sparse.trace
            )
        # The sampled trace agrees with the dense one wherever both record.
        for cycle in (4, 8):
            assert sparse.trace.record_at(cycle).mean == pytest.approx(
                dense.trace.record_at(cycle).mean
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_cycle_returns_none_on_skipped_cycles(self, engine):
        rng = RandomSource(4)
        overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
        simulator = engine(
            overlay,
            AverageFunction(),
            [1.0] * SIZE,
            rng.child("s"),
            record_every=2,
        )
        assert simulator.run_cycle() is None
        record = simulator.run_cycle()
        assert record is not None and record.cycle == 2

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("record_every", [0, 2.5, 2.0, True])
    def test_invalid_record_every_rejected(self, engine, record_every):
        # Regression: int() silently truncated 2.5 to 2 on both cycle
        # engines (cycles [0, 2, 4, 6]).
        rng = RandomSource(4)
        overlay = build_overlay(OVERLAYS["random"], SIZE, rng.child("t"))
        with pytest.raises(ConfigurationError, match="record_every"):
            engine(
                overlay, AverageFunction(), [1.0] * SIZE, rng.child("s"), record_every=record_every
            )


class TestConflictRounds:
    # The engines pass int32 scratch (conflict_scratch); an int64 buffer
    # must schedule identically.
    @pytest.mark.parametrize("scratch_dtype", [np.int32, np.int64])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rounds_partition_preserves_order_and_disjointness(
        self, data, scratch_dtype
    ):
        node_count = data.draw(st.integers(min_value=2, max_value=30))
        exchange_count = data.draw(st.integers(min_value=0, max_value=80))
        initiators = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=node_count - 1),
                    min_size=exchange_count,
                    max_size=exchange_count,
                )
            ),
            dtype=np.int64,
        )
        peers = np.asarray(
            [
                data.draw(
                    st.integers(min_value=0, max_value=node_count - 1).filter(
                        lambda peer, initiator=initiator: peer != initiator
                    )
                )
                for initiator in initiators
            ],
            dtype=np.int64,
        )
        scratch = np.empty(node_count, dtype=scratch_dtype)
        rounds = ordered_conflict_rounds(initiators, peers, scratch)

        seen_positions = []
        round_of_position = {}
        for round_index, (batch_a, batch_b, positions) in enumerate(rounds):
            touched = set()
            for a, b, position in zip(batch_a, batch_b, positions):
                assert initiators[position] == a and peers[position] == b
                assert a not in touched and b not in touched, "round not node-disjoint"
                touched.update((int(a), int(b)))
                round_of_position[int(position)] = round_index
                seen_positions.append(int(position))
        assert sorted(seen_positions) == list(range(exchange_count)), "not a partition"
        # Exchanges sharing a node must be applied in their original order.
        for i in range(exchange_count):
            for j in range(i + 1, exchange_count):
                if {int(initiators[i]), int(peers[i])} & {
                    int(initiators[j]),
                    int(peers[j]),
                }:
                    assert round_of_position[i] < round_of_position[j]
