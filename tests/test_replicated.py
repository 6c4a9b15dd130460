"""Replicated tensor engine: bit-identity, plan plumbing, block overlays.

The load-bearing property of the replica-batched engine is that fusing
``R`` repetitions into one stacked simulation changes *nothing* about any
individual repetition: every trace record and every final node state must
be bit-identical to what the serial fast path produces from the same root
seed.  These tests assert that across the
{complete, static random, NEWSCAST-array} × {none, crash, count-crash}
× {perfect, message-loss} grid plus churn on NEWSCAST-array, the one
overlay of the three that takes joins (and the dict NEWSCAST oracle under
loss and churn), plus a hypothesis property that the plan-based
``repeat_traces`` fast path reproduces the serial output list-for-list.
"""

import hashlib
from typing import Callable, NamedTuple, Optional

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from static_graphs import degrees, static_graph, to_networkx

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RandomSource
from repro.core.functions import AverageFunction, MinFunction, PushSumFunction
from repro.experiments.runner import (
    RunPlan,
    repeat_simulations,
    repeat_traces,
    uniform_initial_values,
)
from repro.newscast.vectorized_cache import ReplicatedNewscastBlock, VectorizedNewscastOverlay
from repro.simulator.failures import ChurnModel, CountCrashModel, ProportionalCrashModel
from repro.simulator.replicated import (
    ReplicaConfig,
    ReplicatedCycleSimulator,
    ReplicaView,
)
from repro.simulator.transport import PERFECT_TRANSPORT, TransportModel
from repro.simulator.vectorized import VectorizedCycleSimulator
from repro.topology import TopologySpec, build_overlay
from repro.topology.random_regular import random_k_out_topology
from repro.topology.replicated import ReplicatedStaticBlock, draw_k_out_peers

SIZE = 90
DEGREE = 8
CYCLES = 10
REPLICAS = 3
SEED = 4242


TOPOLOGIES = {
    "complete": TopologySpec("complete"),
    "static": TopologySpec("random", degree=DEGREE),
    "newscast-array": TopologySpec(
        "newscast", degree=DEGREE, params={"vectorized": True}
    ),
}

DICT_NEWSCAST = TopologySpec("newscast", degree=DEGREE, params={"vectorized": False})

FAILURES = {
    "none": None,
    "crash": lambda: ProportionalCrashModel(0.05),
    "count-crash": lambda: CountCrashModel(3),
    "churn": lambda: ChurnModel(3),
}

#: Churn adds nodes, so it runs only on the overlay that takes joins.
GRID = [
    (failure_key, topology_key)
    for failure_key in sorted(FAILURES)
    for topology_key in sorted(TOPOLOGIES)
    if failure_key != "churn" or topology_key == "newscast-array"
]

TRANSPORTS = {
    "perfect": PERFECT_TRANSPORT,
    "message-loss": TransportModel(message_loss_probability=0.2),
}


def records_equal(left, right):
    """Field-exact equality of two cycle records (no tolerances)."""
    return (
        left.cycle == right.cycle
        and left.participant_count == right.participant_count
        and left.mean == right.mean
        and left.variance == right.variance
        and left.minimum == right.minimum
        and left.maximum == right.maximum
        and left.completed_exchanges == right.completed_exchanges
        and left.failed_exchanges == right.failed_exchanges
    )


def serial_runs(repeats, seed, plan):
    """The serial side: each repetition alone, from its own child stream."""
    root = RandomSource(seed)
    return [plan.serial_run(index, root.child("run", index)) for index in range(repeats)]


def assert_traces_identical(serial_traces, replicated_traces):
    assert len(serial_traces) == len(replicated_traces)
    for serial, replicated in zip(serial_traces, replicated_traces):
        assert len(serial) == len(replicated)
        for left, right in zip(serial.records, replicated.records):
            assert records_equal(left, right), (left, right)


class TestBitIdentityGrid:
    """Replicated-vs-serial equivalence over the scenario grid."""

    @pytest.mark.parametrize(
        "failure_key, topology_key", GRID, ids=["-".join(cell) for cell in GRID]
    )
    @pytest.mark.parametrize("transport_key", sorted(TRANSPORTS))
    def test_traces_and_states_bit_identical(
        self, topology_key, failure_key, transport_key
    ):
        self.assert_plan_stacks_bit_identically(
            TOPOLOGIES[topology_key], FAILURES[failure_key], TRANSPORTS[transport_key]
        )

    @pytest.mark.parametrize("failure_key", ["none", "churn"])
    def test_dict_newscast_oracle_stacks_bit_identically(self, failure_key):
        # The dict oracle answers the same batched peer draw as every other
        # overlay, so its repeats stack too (one standalone overlay each).
        self.assert_plan_stacks_bit_identically(
            DICT_NEWSCAST, FAILURES[failure_key], TRANSPORTS["message-loss"]
        )

    @staticmethod
    def assert_plan_stacks_bit_identically(topology, failure_factory, transport):
        plan = RunPlan(
            topology=topology,
            size=SIZE,
            cycles=CYCLES,
            values=uniform_initial_values,
            transport=transport,
            failure_factory=failure_factory,
        )
        # collect sees the runs in replica order on both paths.
        serial_states = []
        replicated_states = []

        def collector(states):
            def collect(simulator):
                states.append((simulator.participant_ids(), simulator.state_array()))
                return simulator.trace

            return collect

        serial_plan = RunPlan(**{**plan.__dict__, "collect": collector(serial_states)})
        serial = serial_runs(REPLICAS, SEED, serial_plan)
        replicated_plan = RunPlan(
            **{**plan.__dict__, "collect": collector(replicated_states)}
        )
        replicated = repeat_traces(REPLICAS, SEED, plan=replicated_plan)

        assert_traces_identical(serial, replicated)
        assert len(serial_states) == len(replicated_states) == REPLICAS
        for (serial_ids, serial_block), (ids, block) in zip(
            serial_states, replicated_states
        ):
            assert np.array_equal(serial_ids, ids)
            assert np.array_equal(serial_block, block)

    def test_sudden_death_matches_at_scale_point(self):
        from repro.simulator.failures import SuddenDeathModel

        plan = RunPlan(
            topology=TOPOLOGIES["static"],
            size=SIZE,
            cycles=CYCLES,
            values=uniform_initial_values,
            failure_factory=lambda: SuddenDeathModel(0.5, at_cycle=4),
        )
        serial = serial_runs(REPLICAS, SEED, plan)
        replicated = repeat_traces(REPLICAS, SEED, plan=plan)
        assert_traces_identical(serial, replicated)

    @pytest.mark.parametrize("function_factory", [MinFunction, PushSumFunction])
    def test_other_codec_functions(self, function_factory):
        plan = RunPlan(
            topology=TOPOLOGIES["complete"],
            size=SIZE,
            cycles=CYCLES,
            values=uniform_initial_values,
            function_factory=function_factory,
        )
        serial = serial_runs(REPLICAS, SEED, plan)
        replicated = repeat_traces(REPLICAS, SEED, plan=plan)
        assert_traces_identical(serial, replicated)


class TestTraceSplittingProperty:
    """Splitting a replicated run reproduces repeat_traces list-for-list."""

    @settings(max_examples=12, deadline=None)
    @given(
        repeats=st.integers(min_value=1, max_value=5),
        size=st.integers(min_value=8, max_value=60),
        cycles=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        record_every=st.integers(min_value=1, max_value=3),
        loss=st.sampled_from([0.0, 0.3]),
    )
    def test_replicated_splits_to_serial_list(
        self, repeats, size, cycles, seed, record_every, loss
    ):
        plan = RunPlan(
            topology=TopologySpec("random", degree=min(4, size - 1)),
            size=size,
            cycles=cycles,
            values=uniform_initial_values,
            transport=TransportModel(message_loss_probability=loss),
            record_every=record_every,
        )
        serial = serial_runs(repeats, seed, plan)
        replicated = repeat_traces(repeats, seed, plan=plan)
        assert_traces_identical(serial, replicated)


class TestRunPlanPlumbing:
    @pytest.mark.parametrize("params", [{}, {"vectorized": True}, {"vectorized": False}])
    def test_run_plan_and_build_overlay_agree_on_the_newscast_class(self, params):
        spec = TopologySpec("newscast", degree=DEGREE, params=params)
        plan = RunPlan(topology=spec, size=SIZE, cycles=1, values=uniform_initial_values)
        overlay = build_overlay(spec, SIZE, RandomSource(SEED))
        array_native = params.get("vectorized", True)
        assert isinstance(overlay, VectorizedNewscastOverlay) == array_native
        (replica_overlay,) = plan.build_replica_overlays([RandomSource(SEED)])
        assert type(replica_overlay) is type(overlay)

    def test_make_run_or_plan_exactly(self):
        plan = RunPlan(
            topology=TOPOLOGIES["complete"],
            size=20,
            cycles=2,
            values=[1.0] * 20,
        )
        with pytest.raises(ConfigurationError, match="need either"):
            repeat_traces(2, SEED)
        with pytest.raises(ConfigurationError, match="not both"):
            repeat_traces(2, SEED, make_run=lambda i, rng: None, plan=plan)

    def test_zero_and_single_repeats(self):
        plan = RunPlan(
            topology=TOPOLOGIES["complete"],
            size=20,
            cycles=2,
            values=[float(i) for i in range(20)],
        )
        assert repeat_traces(0, SEED, plan=plan) == []
        serial = serial_runs(1, SEED, plan)
        replicated = repeat_traces(1, SEED, plan=plan)
        assert_traces_identical(serial, replicated)

    def test_collect_receives_simulator_like_view(self):
        plan = RunPlan(
            topology=TOPOLOGIES["static"],
            size=SIZE,
            cycles=3,
            values=uniform_initial_values,
            collect=lambda sim: (
                sim.state_array()[:3, 0].tolist(),
                len(sim.participant_ids()),
                sim.cycle_index,
            ),
        )
        serial = serial_runs(REPLICAS, SEED, plan)
        replicated = repeat_simulations(REPLICAS, SEED, plan=plan)
        assert serial == replicated


class TestReplicatedStaticBlock:
    def test_rows_match_static_topology(self):
        rng_block = RandomSource(9)
        rng_serial = RandomSource(9)
        block = ReplicatedStaticBlock.build_k_out(SIZE, DEGREE, [rng_block])
        topology = random_k_out_topology(SIZE, DEGREE, rng_serial)
        view = block.view(0)
        for node in range(SIZE):
            assert view.neighbors(node) == tuple(sorted(topology.neighbors(node)))
        assert view.size() == topology.size()
        assert degrees(view) == degrees(topology)

    def test_peer_draws_match_after_membership_changes(self):
        block = ReplicatedStaticBlock.build_k_out(SIZE, DEGREE, [RandomSource(9)])
        topology = random_k_out_topology(SIZE, DEGREE, RandomSource(9))
        view = block.view(0)
        for victim in (3, 40, SIZE - 1):
            topology.on_node_removed(victim)
            view.on_node_removed(victim)
        alive = np.asarray(topology.node_ids(), dtype=np.int64)
        g1 = np.random.Generator(np.random.PCG64(3))
        g2 = np.random.Generator(np.random.PCG64(3))
        assert np.array_equal(
            topology.select_peers_batch(alive, g1),
            view.select_peers_batch(alive, g2),
        )

    def test_batched_picks_follow_the_ascending_row(self):
        # One rule for every door: index floor(u * degree) of the
        # ascending neighbour row, for a standalone topology as for a
        # replica view of a block.
        topology = random_k_out_topology(SIZE, DEGREE, RandomSource(9))
        view = ReplicatedStaticBlock.build_k_out(
            SIZE, DEGREE, [RandomSource(8), RandomSource(9)]
        ).view(1)

        def picks(overlay):
            nodes = overlay.node_ids()
            batched = overlay.select_peers_batch(
                np.asarray(nodes, dtype=np.int64), RandomSource(77).generator
            )
            return nodes.tolist(), batched.tolist()

        def assert_same_picks():
            nodes, batched = picks(topology)
            assert (nodes, batched) == picks(view)
            uniforms = RandomSource(77).generator.random(len(nodes))
            for node, peer, uniform in zip(nodes, batched, uniforms):
                row = sorted(topology.neighbors(node))
                assert peer == row[int(uniform * len(row))]

        assert_same_picks()
        for overlay in (topology, view):
            for victim in (3, 40, SIZE - 1):
                overlay.on_node_removed(victim)
        assert_same_picks()

    def test_from_builder_adopts_built_graphs_with_their_crashes(self):
        topologies = [
            random_k_out_topology(40, 5, RandomSource(seed)) for seed in (1, 2)
        ]
        topologies[1].on_node_removed(7)
        reference = [to_networkx(topology) for topology in topologies]
        block = ReplicatedStaticBlock.from_builder(2, topologies.__getitem__)
        for replica, graph in enumerate(reference):
            view = block.view(replica)
            assert np.array_equal(view.node_ids(), topologies[replica].node_ids())
            assert nx.utils.graphs_equal(to_networkx(view), graph)

    def test_draw_k_out_peers_distinct_and_self_free(self):
        peers = draw_k_out_peers(50, 7, RandomSource(11))
        for node, row in enumerate(peers):
            assert len(set(row.tolist())) == 7
            assert node not in row

    def test_draw_k_out_peers_with_every_other_node(self):
        # degree == size - 1: the redraw passes can never finish, so the
        # sampler completes the stuck rows exactly.
        peers = draw_k_out_peers(60, 59, RandomSource(0))
        for node, row in enumerate(peers):
            assert row.tolist() == [peer for peer in range(60) if peer != node]

    def test_draw_k_out_peers_near_complete_rows_are_distinct(self):
        peers = draw_k_out_peers(21, 18, RandomSource(16))
        for node, row in enumerate(peers):
            assert len(set(row.tolist())) == 18
            assert node not in row

    def test_draw_k_out_peers_stream_is_pinned(self):
        peers = draw_k_out_peers(400, 20, RandomSource(2004))
        assert peers.dtype == np.int32
        assert hashlib.sha256(peers.astype(np.int64).tobytes()).hexdigest() == (
            "c046862792506758e558b8d03678fc43e14cfeb73a59a2f6d1ba194f346d6979"
        )

    def test_isolated_last_csr_row_draws_no_peer(self):
        # Regression: an isolated node owning the LAST CSR row made
        # StaticTopology.select_peers_batch gather at offset + 0 ==
        # flat.size — an IndexError before the isolated-lookup pinning.
        topology = static_graph({0: [1], 1: [0], 2: [0, 1]}, name="tail")
        topology.on_node_removed(2)  # node 1 keeps the last row; crash 0 next
        topology.on_node_removed(0)  # node 1 is now isolated AND last
        generator = np.random.Generator(np.random.PCG64(0))
        peers = topology.select_peers_batch(np.array([1], dtype=np.int64), generator)
        assert peers.tolist() == [-1]

    def test_isolated_nodes_draw_no_peer(self):
        topology = static_graph({0: [1], 1: [0], 2: []}, name="tiny")
        block = ReplicatedStaticBlock.from_builder(1, lambda replica: topology)
        generator = np.random.Generator(np.random.PCG64(0))
        peers = block.view(0).select_peers_batch(
            np.array([0, 1, 2], dtype=np.int64), generator
        )
        assert peers[2] == -1
        assert peers[0] == 1 and peers[1] == 0

    def test_unknown_ids_draw_no_peer(self):
        # Regression: -1 wrapped onto the last row of the block (another
        # replica's node at R > 1) and came back with a real peer.
        rngs = [RandomSource(3), RandomSource(4)]
        block = ReplicatedStaticBlock.build_k_out(40, 5, rngs)
        ids = np.array([3, -1, 40, 10**9], dtype=np.int64)
        for view in (block.view(0), block.view(1)):
            peers = view.select_peers_batch(ids, np.random.default_rng(1))
            assert peers[1:].tolist() == [-1, -1, -1]
            assert int(peers[0]) in view.neighbors(3)
            # Unknown ids consume no randomness.
            alone = view.select_peers_batch(ids[:1], np.random.default_rng(1))
            assert peers[0] == alone[0]
        empty = static_graph({}, name="empty")
        assert empty.select_peers_batch(ids, np.random.default_rng(1)).tolist() == [-1] * 4


class TestReplicatedNewscastBlock:
    def test_bootstrap_matches_standalone_overlays(self):
        rngs = [RandomSource(100 + index) for index in range(REPLICAS)]
        views = ReplicatedNewscastBlock.bootstrap(
            REPLICAS, SIZE, DEGREE, [RandomSource(100 + i) for i in range(REPLICAS)]
        )
        assert all(view._block is views[0]._block for view in views)
        for view, rng in zip(views, rngs):
            standalone = VectorizedNewscastOverlay.bootstrap(SIZE, DEGREE, rng)
            for node in range(0, SIZE, 7):
                assert view.cache_of(node).entries() == standalone.cache_of(
                    node
                ).entries()

    def test_stacked_round_matches_private_rounds(self):
        views = ReplicatedNewscastBlock.bootstrap(
            2, SIZE, DEGREE, [RandomSource(7), RandomSource(8)]
        )
        solo_a = VectorizedNewscastOverlay.bootstrap(SIZE, DEGREE, RandomSource(7))
        solo_b = VectorizedNewscastOverlay.bootstrap(SIZE, DEGREE, RandomSource(8))
        round_rngs = [RandomSource(21), RandomSource(22)]
        views[0]._block.after_cycle_stacked(list(zip(views, round_rngs)))
        solo_a.after_cycle(RandomSource(21))
        solo_b.after_cycle(RandomSource(22))
        for node in range(0, SIZE, 11):
            assert views[0].cache_of(node).entries() == solo_a.cache_of(node).entries()
            assert views[1].cache_of(node).entries() == solo_b.cache_of(node).entries()

    def test_block_crosses_a_base_slide_bit_identically(self):
        # Past clock 128 the block's shared timestamp base slides: the three
        # replicas must stay bit-identical to standalone overlays.
        seeds = (7, 8, 9)
        views = ReplicatedNewscastBlock.bootstrap(
            3, 60, 6, [RandomSource(seed) for seed in seeds]
        )
        block = views[0]._block
        solos = [
            VectorizedNewscastOverlay.bootstrap(60, 6, RandomSource(seed))
            for seed in seeds
        ]
        block_rngs = [RandomSource(20 + seed) for seed in seeds]
        solo_rngs = [RandomSource(20 + seed) for seed in seeds]
        for _ in range(140):
            block.after_cycle_stacked(list(zip(views, block_rngs)))
            for solo, rng in zip(solos, solo_rngs):
                solo.after_cycle(rng)
        assert block._ts_base > 0
        for view, solo in zip(views, solos):
            assert view.clock == solo.clock == 145.0
            assert view.packing == solo.packing == "int32"
            for node in range(60):
                assert view.cache_of(node).entries() == solo.cache_of(node).entries()

    def test_block_widens_once_for_all_replicas(self):
        # N = 8 < c with a crashed node: the stale descriptor is never
        # evicted, so the live spread outgrows int32 and the block widens.
        seeds = (3, 4)
        views = ReplicatedNewscastBlock.bootstrap(
            2, 8, 30, [RandomSource(seed) for seed in seeds]
        )
        block = views[0]._block
        solos = [
            VectorizedNewscastOverlay.bootstrap(8, 30, RandomSource(seed))
            for seed in seeds
        ]
        for overlay in views + solos:
            overlay.on_node_removed(3)
        block_rngs = [RandomSource(20 + seed) for seed in seeds]
        solo_rngs = [RandomSource(20 + seed) for seed in seeds]
        for _ in range(200):
            block.after_cycle_stacked(list(zip(views, block_rngs)))
            for solo, rng in zip(solos, solo_rngs):
                solo.after_cycle(rng)
        assert block._widened_at is not None
        for view, solo in zip(views, solos):
            assert view.packing == "int64" and view.widened_at == block._widened_at
            for node in view.node_ids():
                assert view.cache_of(node).entries() == solo.cache_of(node).entries()

    def test_a_join_with_no_free_row_grows_the_block(self):
        # Replica 1 joins a node while all its rows are taken: the whole
        # block grows its stride and the replica stays in it.  Then every
        # replica loses node 3, whose descriptor a tiny overlay (N < c)
        # never evicts, so the shared base slides past clock 128 and the
        # block widens later.  All three stay bit-identical to standalone
        # overlays driven the same way throughout.
        seeds = (3, 4, 5)
        views = ReplicatedNewscastBlock.bootstrap(
            3, 8, 30, [RandomSource(seed) for seed in seeds]
        )
        block = views[0]._block
        solos = [
            VectorizedNewscastOverlay.bootstrap(8, 30, RandomSource(seed))
            for seed in seeds
        ]
        views[1].on_node_added(8, RandomSource(40))
        solos[1].on_node_added(8, RandomSource(40))
        assert block._stride == 16 and views[1]._block is block
        for overlay in views + solos:
            overlay.on_node_removed(3)
        block_rngs = [RandomSource(20 + seed) for seed in seeds]
        solo_rngs = [RandomSource(20 + seed) for seed in seeds]
        slid_at = None
        for _ in range(200):
            block.after_cycle_stacked(list(zip(views, block_rngs)))
            for solo, rng in zip(solos, solo_rngs):
                solo.after_cycle(rng)
            if slid_at is None and block._ts_base > 0:
                slid_at = views[0].clock
                assert views[0].packing == "int32"
            for view, solo in zip(views, solos):
                assert np.array_equal(view.node_ids(), solo.node_ids())
                for node in view.node_ids():
                    assert view.cache_of(node).entries() == solo.cache_of(node).entries()
        assert slid_at == 128.0
        assert block._widened_at is not None and views[0].packing == "int64"
        assert all(view._block is block for view in views) and block._stride == 16
        assert [view.size() for view in views] == [7, 8, 7]

    def test_a_stacked_replica_is_maintained_only_by_its_block(self):
        from repro.common.errors import MembershipError

        views = ReplicatedNewscastBlock.bootstrap(
            2, 30, 5, [RandomSource(1), RandomSource(2)]
        )
        block = views[0]._block
        with pytest.raises(MembershipError):
            views[0].after_cycle(RandomSource(9))
        with pytest.raises(MembershipError):
            block.after_cycle_stacked([(views[0], RandomSource(9))])
        assert views[0].clock == views[1].clock == 5.0

    def test_a_standalone_overlay_is_a_one_replica_block_freed_with_it(self):
        import gc
        import weakref

        overlay = VectorizedNewscastOverlay.bootstrap(30, 5, RandomSource(1))
        block = weakref.ref(overlay._block)
        assert block()._replicas == 1 and block()._packed.shape == (30, 5)
        overlay.on_node_added(30, RandomSource(2))
        assert overlay._block is block() and block()._stride == 60
        # The view holds its block and the block holds no view: dropping
        # the view frees both by reference counting alone.
        gc.disable()
        try:
            del overlay
            assert block() is None
        finally:
            gc.enable()


#: The doors' overlay: array NEWSCAST, since the door tests add nodes.
DOOR_OVERLAY = TopologySpec("newscast", degree=4)


def build_replicated_engine():
    root = RandomSource(5)
    configs = [
        ReplicaConfig(
            overlay=build_overlay(DOOR_OVERLAY, 30, root.child("t", index)),
            initial_values=[float(i) for i in range(30)],
            rng=root.child("s", index),
        )
        for index in range(2)
    ]
    return ReplicatedCycleSimulator(configs, AverageFunction())


def build_vectorized_simulator():
    """The R=1 door over the streams of replica 0 of the engine above."""
    root = RandomSource(5)
    return VectorizedCycleSimulator(
        build_overlay(DOOR_OVERLAY, 30, root.child("t", 0)),
        AverageFunction(),
        [float(i) for i in range(30)],
        root.child("s", 0),
    )


class Door(NamedTuple):
    """One entry onto the shared per-run surface."""

    surface: ReplicaView
    run: Callable[[int], object]
    sibling: Optional[ReplicaView]


@pytest.fixture(params=["replica-view", "vectorized"])
def door(request):
    if request.param == "vectorized":
        simulator = build_vectorized_simulator()
        return Door(simulator, simulator.run, None)
    engine = build_replicated_engine()
    return Door(engine.view(0), engine.run, engine.view(1))


class TestReplicaViewSurface:
    """The per-run surface, through view 0 of an R=2 engine and the R=1 door."""

    def test_membership_round_trip(self, door):
        view = door.surface
        assert view.participant_ids().tolist() == list(range(30))
        view.crash_node(7)
        assert 7 not in view.participant_ids()
        assert not view.overlay.contains(7)
        joined = view.add_node()
        assert view.overlay.contains(joined)
        assert not view.is_participant(joined)
        # The sibling replica is untouched throughout.
        if door.sibling is not None:
            assert door.sibling.participant_ids().tolist() == list(range(30))

    def test_joins_leave_participant_states_alone(self, door):
        view = door.surface
        door.run(2)
        states = view.state_array()
        sibling_states = None if door.sibling is None else door.sibling.state_array()
        for _ in range(40):  # more joiners than the engine has rows
            view.add_node()
        assert view.participant_ids().tolist() == list(range(30))
        assert np.array_equal(view.state_array(), states)
        assert view.overlay.contains(45)
        if door.sibling is not None:
            assert np.array_equal(door.sibling.state_array(), sibling_states)

    def test_rejects_empty_replica_list(self):
        with pytest.raises(ConfigurationError):
            ReplicatedCycleSimulator([], AverageFunction())

    def test_state_array_matches_serial_layout(self, door):
        door.run(3)
        view = door.surface
        array = view.state_array()
        assert array.shape == (30, 1)

    def test_run_rejects_negative_cycles(self, door):
        with pytest.raises(ConfigurationError):
            door.run(-1)

    def test_is_participant(self, door):
        view = door.surface
        view.crash_node(3)
        waiting = view.add_node()
        assert view.is_participant(0)
        assert not view.is_participant(3)
        assert not view.is_participant(waiting)
        assert not view.is_participant(-1)
        assert not view.is_participant(10_000)

    @pytest.mark.parametrize(
        "node_ids", [[-1], [0, 10_000], [0, 3]], ids=["negative", "beyond-stride", "crashed"]
    )
    def test_override_values_rejects_non_participants(self, door, node_ids):
        view = door.surface
        view.crash_node(3)
        before = view.state_array()
        with pytest.raises(SimulationError, match=f"node {node_ids[-1]} "):
            view.override_values(node_ids, [1.0] * len(node_ids))
        assert np.array_equal(view.state_array(), before)

    def test_override_values_rejects_row_count_mismatch(self, door):
        with pytest.raises(ConfigurationError):
            door.surface.override_values([0, 1], [1.0, 2.0, 3.0])

    def test_override_values_scatters_encoded_rows(self, door, node_row):
        view = door.surface
        view.override_values(np.array([4, 2]), [40.0, 20.0])
        view.override_values([], [])
        assert (node_row(view, 4)[0], node_row(view, 2)[0]) == (40.0, 20.0)
        if door.sibling is not None:
            assert node_row(door.sibling, 4)[0] == 4.0


class TestBlockViewScalarSurface:
    """The OverlayProvider odds and ends of the block views."""

    def build_view(self):
        block = ReplicatedStaticBlock.build_k_out(40, 5, [RandomSource(3)])
        return block, block.view(0)

    def test_batched_draw_picks_a_neighbour(self):
        _, view = self.build_view()
        (peer,) = view.select_peers_batch(np.array([0]), RandomSource(1).generator)
        assert peer in view.neighbors(0)

    def test_batched_draw_handles_missing_and_isolated(self):
        block, view = self.build_view()
        assert view.select_peers_batch(np.array([999]), RandomSource(1).generator).tolist() == [-1]
        topology = static_graph({0: [1], 1: [0], 2: []}, name="tiny")
        isolated = ReplicatedStaticBlock.from_builder(1, lambda replica: topology).view(0)
        assert isolated.select_peers_batch(np.array([2]), RandomSource(1).generator).tolist() == [-1]

    def test_neighbors_of_unknown_node_raises(self):
        from repro.common.errors import TopologyError

        _, view = self.build_view()
        with pytest.raises(TopologyError):
            view.neighbors(999)

    def test_contains_size_and_repr(self):
        block, view = self.build_view()
        assert view.contains(0) and not view.contains(40)
        assert view.size() == 40
        with pytest.raises(Exception):
            block.view(5)

    def test_remove_unknown_node_is_a_noop(self):
        _, view = self.build_view()
        before = view.size()
        view.on_node_removed(999)
        assert view.size() == before

    def test_joins_are_refused(self):
        from repro.common.errors import TopologyError

        _, view = self.build_view()
        for node in (0, 40):
            with pytest.raises(TopologyError, match="fixed membership"):
                view.on_node_added(node, RandomSource(1))
        assert view.size() == 40


class TestNewscastBlockEdges:
    def test_bootstrap_requires_one_stream_per_replica(self):
        from repro.common.errors import MembershipError

        with pytest.raises(MembershipError):
            ReplicatedNewscastBlock.bootstrap(2, 20, 5, [RandomSource(1)])
