"""A stacked run's memory: its arrays, bounded crash removal, and freeing.

A stacked run of ``R`` repetitions is held in arrays only: the ragged row
store of the overlays (4 B per stored neighbour, 17 B per row), one
float64 initial value per node, the ``(R * stride, width)`` state block
and three per-row arrays of the engine (participant mask, scheduling
scratch, cached participant rows) — no Python object per node.  The law
test reads what a construction retains with ``tracemalloc``.

Crash removal (``ReplicatedStaticBlock._settle``) deletes the pending
victims in groups of at most ``_SETTLE_ENTRIES`` stored entries.
Deletions commute, so the parity tests patch the budget down to one
entry and compare with the same removal in one pass; the peak test holds
the settle's scratch to the budget whatever the number of victims.

A finished run holds no reference cycle, so it is freed by reference
counting as soon as ``repeat_traces`` returns, with the cyclic collector
off.

A point runs its repetitions as consecutive groups of at most
``_REPLICA_GROUP_BYTES`` law-predicted bytes.  Replicas keep their own
streams, so the parity tests patch the budget down to one replica per
group and compare with the one-group run; the peak test holds a point
above the budget to one group's law.
"""

import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from static_graphs import degrees, edge_list, static_graph

from repro.common.rng import RandomSource
from repro.core import functions
from repro.core.functions import AverageFunction, VectorFunction, replica_groups
from repro.experiments import runner
from repro.experiments.runner import RunPlan, repeat_traces, uniform_initial_values
from repro.newscast.vectorized_cache import ReplicatedNewscastBlock
from repro.simulator.failures import ChurnModel, CountCrashModel, SuddenDeathModel
from repro.simulator.replicated import ReplicaConfig, ReplicatedCycleSimulator
from repro.simulator.transport import TransportModel
from repro.topology import TopologySpec
from repro.topology import replicated
from repro.topology.replicated import ReplicatedStaticBlock, sample_distinct_peers


def build_scratch(size, degree):
    """A k-out build's scratch besides its rows: its int32 draws and one budget of int64 keys.

    The budget is the sampler's int64 chunk (``_BAND_KEYS`` draws, or all of
    them when fewer); the kernel's keys of a banded build are half as many.
    """
    draws = size * degree
    return 4 * draws + 8 * min(draws, replicated._BAND_KEYS)


def one_pass():
    """Patch the settle budget so that every removal is one group."""
    return mock.patch.object(replicated, "_SETTLE_ENTRIES", 1 << 62)


def budget_of(entries):
    """Patch the settle budget to ``entries`` stored entries per group."""
    return mock.patch.object(replicated, "_SETTLE_ENTRIES", entries)


def block_state(block, replicas):
    """Every replica's nodes, rows and degrees, as plain values."""
    views = [block.view(replica) for replica in range(replicas)]
    return [
        (
            view.node_ids().tolist(),
            {node: view.neighbors(node) for node in view.node_ids().tolist()},
            degrees(view),
        )
        for view in views
    ]


class TestGroupedSettle:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        budget=st.sampled_from([1, 2, 3, 7, 40]),
    )
    def test_grouped_and_one_pass_settles_agree(self, data, budget):
        # Dense random graphs, so victims often neighbour each other, in
        # three replicas; one crash event per round, settled at the read.
        size = data.draw(st.integers(2, 24))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                    lambda edge: edge[0] != edge[1]
                ),
                max_size=120,
            )
        )
        adjacency = {node: set() for node in range(size)}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        grouped, whole = (
            ReplicatedStaticBlock.from_builder(3, lambda replica: static_graph(adjacency))
            for _ in range(2)
        )
        for _ in range(data.draw(st.integers(1, 3))):
            for replica in range(3):
                victims = data.draw(st.lists(st.integers(0, size - 1), unique=True))
                for block in (grouped, whole):
                    for victim in victims:
                        block.view(replica).on_node_removed(victim)
            with budget_of(budget):
                grouped._settle()
            with one_pass():
                whole._settle()
            assert block_state(grouped, 3) == block_state(whole, 3)
            assert np.array_equal(grouped._degrees, whole._degrees)

    def test_a_triangle_of_victims_one_entry_at_a_time(self):
        # Victims 1, 2 and 3 are a triangle that live node 0 neighbours,
        # and node 4 neighbours two of them.
        adjacency = {0: {1, 2, 3, 5}, 1: {0, 2, 3, 4}, 2: {0, 1, 3}, 3: {0, 1, 2, 4},
                     4: {1, 3, 5}, 5: {0, 4}}
        grouped, whole = (static_graph(adjacency) for _ in range(2))
        for topology in (grouped, whole):
            for victim in (2, 1, 3):
                topology.on_node_removed(victim)
        with budget_of(1):
            grouped._block._settle()
        with one_pass():
            whole._block._settle()
        assert grouped.neighbors(0) == whole.neighbors(0) == (5,)
        assert grouped.neighbors(4) == whole.neighbors(4) == (5,)
        assert degrees(grouped) == degrees(whole) == [1, 1, 2]
        assert edge_list(grouped) == edge_list(whole)

    def test_traced_peak_is_bounded_by_the_budget_not_the_victims(self):
        replicas, size = 20, 10_000
        block = ReplicatedStaticBlock.build_k_out(
            size, 20, [RandomSource(seed) for seed in range(replicas)]
        )
        victims = np.random.default_rng(1).choice(size, 50, replace=False).tolist()
        for replica in range(replicas):
            view = block.view(replica)
            for victim in victims:
                view.on_node_removed(victim)
        tracemalloc.start()
        try:
            block._settle()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Twelve int64 arrays of one group of at most 65,536 entries (the
        # victims' entries, their rows, the binary search and the tail
        # spans), plus 32 B per victim: 6.9 MB.  Measured 4.0 MB; one
        # pass over the 1,000 victims' tails read 25.8 MB.
        assert peak <= 12 * 8 * 65_536 + 32 * len(victims) * replicas + 65_536
        assert all(block._size(replica) == size - 50 for replica in range(replicas))


class TestStackedRunMemoryLaw:
    def test_construction_retains_only_the_arrays_of_the_law(self):
        replicas, size, degree = 5, 20_000, 20
        plan = RunPlan(
            topology=TopologySpec("random", degree=degree),
            size=size,
            cycles=1,
            values=uniform_initial_values,
        )
        rngs = [RandomSource(2004).child("run", index) for index in range(replicas)]
        # Build once untraced, so first-use imports and caches stay out.
        (warm,) = plan.build_replica_overlays([rngs[0]])
        ReplicatedCycleSimulator([ReplicaConfig(warm, [1.0] * size, rngs[0])], AverageFunction())
        del warm
        gc.collect()
        tracemalloc.start()
        try:
            overlays = plan.build_replica_overlays(
                [rng.child("topology") for rng in rngs]
            )
            block = overlays[0]._block
            configs = [
                ReplicaConfig(overlay, plan.resolve_values(rng), rng.child("simulation"))
                for overlay, rng in zip(overlays, rngs)
            ]
            engine = ReplicatedCycleSimulator(configs, plan.function_factory())
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = int(block._degrees.sum())
        width = engine.function.state_width()
        rows = replicas * size
        # 4 B per stored neighbour and 17 B per row of the store, 8 B per
        # initial value, and per state row 8 B per float plus 13 B: the
        # participant mask (1), the scheduling scratch (4) and the
        # cached participant rows (8).  Measured 0.6 B per node above;
        # node-id lists and values as Python objects read 68 B more.
        law = 4 * stored + 17 * rows + 8 * replicas * size + (8 * width + 13) * rows
        assert retained <= law + 262_144
        assert all(isinstance(config.initial_values, np.ndarray) for config in configs)


class TestBuildMemoryLaw:
    def test_a_k_out_build_holds_its_draws_its_rows_and_one_budget(self):
        size, degree = 100_000, 20
        # Build once untraced, so first-use imports stay out.
        ReplicatedStaticBlock.build_k_out(100, degree, [RandomSource(1)])
        gc.collect()
        tracemalloc.start()
        try:
            block = ReplicatedStaticBlock.build_k_out(size, degree, [RandomSource(2004)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (block._neighbours, block._offsets, block._degrees, block._alive)
        rows = sum(array.nbytes for array in arrays)
        # The rows (18.5 MB: the block store), the int32 draws (8 MB) and
        # one budget of int64 keys (8.4 MB), plus 1 MiB: 35.9 MB.
        # Measured 34.0 MB, set by the sampler's chunk; sorting the
        # int64 keys of both directions at once peaked at 71.3 MB.
        assert peak <= rows + build_scratch(size, degree) + (1 << 20)

    def test_a_small_budget_bounds_the_sampler_mask_and_shift(self):
        # With a 16,384-key budget the law leaves no room for an (N, k)
        # bool mask (2 MB) or an N-entry int32 skip-self range (0.4 MB):
        # the sampler walks row bands of at most the budget.  Measured
        # 25.9 MB against a 26.9 MB law; a whole-matrix mask read 28.0 MB.
        size, degree = 100_000, 20
        with mock.patch.object(replicated, "_BAND_KEYS", 1 << 14):
            ReplicatedStaticBlock.build_k_out(100, degree, [RandomSource(1)])
            gc.collect()
            tracemalloc.start()
            try:
                block = ReplicatedStaticBlock.build_k_out(size, degree, [RandomSource(2004)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            arrays = (block._neighbours, block._offsets, block._degrees, block._alive)
            rows = sum(array.nbytes for array in arrays)
            assert peak <= rows + build_scratch(size, degree) + (1 << 20)

    def test_the_stacked_newscast_bootstrap_holds_one_store(self):
        # The block is the only store: each replica's draw is written
        # straight into its rows, so the bootstrap peaks at what it holds
        # plus one replica's sampler scratch.  Bootstrapping standalone
        # overlays and copying them into a block read 18.2 MiB held and
        # 29.3 MiB peak.
        replicas, size, cache = 10, 10_000, 30
        ReplicatedNewscastBlock.bootstrap(1, 100, cache, [RandomSource(1)])
        gc.collect()
        tracemalloc.start()
        try:
            sample_distinct_peers(size, cache, np.random.default_rng(0))
            _, sampler = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            rngs = [RandomSource(seed) for seed in range(replicas)]
            views = ReplicatedNewscastBlock.bootstrap(replicas, size, cache, rngs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(views) == replicas and views[0]._block._packed.shape == (
            replicas * size, cache
        )
        # Measured: 4.1 MiB sampler scratch, 18.2 MiB held, 22.9 MiB peak.
        assert peak <= held + sampler + (1 << 20)


class TestNodeIds:
    def test_node_ids_are_the_live_ids_ascending_in_a_fresh_int64_array(self):
        # Sparse ids come from crashing nodes 3 and 4 of a dense graph.
        topology = static_graph({0: {1}, 1: {0, 2}, 2: {1}, 5: {2}})
        ids = topology.node_ids()
        assert ids.dtype == np.int64
        assert ids.tolist() == [0, 1, 2, 5]
        ids[0] = 7
        assert topology.node_ids().tolist() == [0, 1, 2, 5]

    def test_each_replica_reads_its_own_live_ids(self):
        # One alive mask per replica: a crash in one slot leaves the
        # other's ids, and an array read before the crash, as they were.
        block = ReplicatedStaticBlock.from_builder(
            2, lambda replica: static_graph({0: {1, 2}, 1: {2}, 2: {3}, 3: set()})
        )
        first, second = block.view(0), block.view(1)
        before = second.node_ids()
        second.on_node_removed(2)
        second.on_node_removed(0)
        assert before.tolist() == [0, 1, 2, 3]
        assert second.node_ids().tolist() == [1, 3]
        assert first.node_ids().tolist() == [0, 1, 2, 3]


class TestFinishedRunsAreFreed:
    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec("random", degree=4),
            TopologySpec("ring-lattice", degree=4),
            TopologySpec("newscast", degree=8),
        ],
        ids=["random", "ring-lattice", "newscast"],
    )
    def test_engine_and_block_die_with_the_last_reference(self, spec, repeats):
        held = []

        def collect(view):
            overlay = view.overlay
            block = overlay._block
            held.extend(weakref.ref(item) for item in (view._engine, overlay, block))
            return view.trace

        plan = RunPlan(
            topology=spec,
            size=60,
            cycles=3,
            values=uniform_initial_values,
            failure_factory=lambda: CountCrashModel(2),
            collect=collect,
        )
        gc.collect()
        gc.disable()
        try:
            traces = repeat_traces(repeats, 2004, plan=plan)
            alive = [ref() is not None for ref in held]
        finally:
            gc.enable()
        assert len(traces) == repeats and len(held) == 3 * repeats
        assert not any(alive)


def group_budget(size):
    """Patch the replica-group budget to ``size`` bytes."""
    return mock.patch.object(functions, "_REPLICA_GROUP_BYTES", size)


def engine_sizes():
    """Record the replicas of every stacked engine ``repeat_traces`` builds."""
    sizes = []

    class Counting(ReplicatedCycleSimulator):
        def __init__(self, replicas, *args, **kwargs):
            sizes.append(len(replicas))
            super().__init__(replicas, *args, **kwargs)

    return sizes, mock.patch.object(runner, "ReplicatedCycleSimulator", Counting)


def run_state(view):
    """A replica's records, participants and final states, as plain values."""
    return (
        repr(view.trace.records),
        view.participant_ids().tolist(),
        view.state_array().tobytes(),
    )


GROUPED_PLANS = {
    "crash": dict(
        topology=TopologySpec("random", degree=6),
        transport=TransportModel(link_failure_probability=0.1),
        failure_factory=lambda: CountCrashModel(3),
    ),
    "sudden-death": dict(
        topology=TopologySpec("ring-lattice", degree=4),
        failure_factory=lambda: SuddenDeathModel(0.25, at_cycle=3),
    ),
    "loss": dict(
        topology=TopologySpec("watts-strogatz", degree=4, beta=0.25),
        transport=TransportModel(message_loss_probability=0.2),
    ),
    "static": dict(topology=TopologySpec("scale-free", degree=3)),
    "newscast": dict(
        topology=TopologySpec("newscast", degree=8),
        transport=TransportModel(message_loss_probability=0.1),
        failure_factory=lambda: ChurnModel(2),
    ),
}


class TestReplicaGroups:
    @pytest.mark.parametrize("name", sorted(GROUPED_PLANS))
    def test_one_replica_groups_match_the_one_group_run(self, name):
        plan = RunPlan(
            size=80, cycles=6, values=uniform_initial_values, collect=run_state,
            **GROUPED_PLANS[name],
        )
        whole_sizes, counting = engine_sizes()
        with counting, group_budget(1 << 62):
            whole = repeat_traces(4, 2004, plan=plan)
        alone_sizes, counting = engine_sizes()
        with counting, group_budget(1):
            alone = repeat_traces(4, 2004, plan=plan)
        assert whole_sizes == [4] and alone_sizes == [1, 1, 1, 1]
        assert alone == whole

    def test_a_replica_above_the_budget_runs_alone(self):
        plan = RunPlan(
            topology=TopologySpec("random", degree=4), size=50, cycles=2,
            values=uniform_initial_values,
        )
        replica = runner._replica_bytes(plan)
        for budget, expected in ((replica - 1, [1] * 5), (2 * replica, [2, 2, 1])):
            sizes, counting = engine_sizes()
            with counting, group_budget(budget):
                repeat_traces(5, 2004, plan=plan)
            assert sizes == expected
        with group_budget(25):
            assert replica_groups(5, 10) == [range(0, 2), range(2, 4), range(4, 5)]
            assert replica_groups(3, 26) == [range(0, 1), range(1, 2), range(2, 3)]
            assert replica_groups(0, 10) == []

    def test_the_largest_default_point_is_one_group(self):
        # Figures 8a/8b at DEFAULT: ten repetitions of 2,000 nodes on
        # NEWSCAST (c = 30) with 50 COUNT instances, 15.1 MiB by the law.
        plan = RunPlan(
            topology=TopologySpec("newscast", degree=30), size=2_000, cycles=1,
            values=uniform_initial_values,
            function_factory=lambda: VectorFunction([AverageFunction() for _ in range(50)]),
        )
        assert len(replica_groups(10, runner._replica_bytes(plan))) == 1

    def test_a_point_above_the_budget_peaks_at_one_group(self):
        replicas, size, degree = 8, 20_000, 20
        plan = RunPlan(
            topology=TopologySpec("random", degree=degree),
            size=size,
            cycles=3,
            values=uniform_initial_values,
            transport=TransportModel(link_failure_probability=0.1),
            failure_factory=lambda: CountCrashModel(50),
        )
        replica = runner._replica_bytes(plan)
        group = len(replica_groups(replicas, replica)[0])
        assert 1 <= group < replicas
        # Warm up untraced, so first-use imports and caches stay out.
        repeat_traces(1, 1, plan=RunPlan(plan.topology, 50, 1, uniform_initial_values))
        gc.collect()
        # One usable CPU keeps the groups (above the fan-out floor) in this
        # process, where tracemalloc sees them.
        tracemalloc.start()
        try:
            with mock.patch.object(runner, "_usable_cpus", lambda: 1):
                traces = repeat_traces(replicas, 2004, plan=plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [trace.final.participant_count for trace in traces] == [size - 150] * replicas
        # One group's law plus the k-out build scratch of one replica (its
        # draws and one budget of int64 keys: 12 B per draw at this size,
        # which is one band), plus 1 MiB.  Two 6.4 MB replicas: 18.6 MB;
        # measured 13.7 MB, 21.8 MB when a build sorted int64 keys
        # of both directions at once (24 B per draw), and 54.7 MB when the
        # eight replicas ran as one group.
        assert peak <= group * replica + build_scratch(size, degree) + (1 << 20)
