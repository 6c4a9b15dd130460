"""Tests for the StaticTopology row store and its OverlayProvider surface."""

import tracemalloc
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from static_graphs import degrees, edge_list, static_graph, to_networkx

from repro.common.errors import TopologyError
from repro.common.rng import RandomSource
from repro.topology import ReplicatedStaticBlock, TopologySpec, build_overlay, replicated
from repro.topology.replicated import (
    _BAND_KEYS,
    _ID_LIMIT,
    rows_from_edges,
    sample_distinct_peers,
)


def triangle():
    return static_graph({0: {1, 2}, 1: {2}, 2: set()}, name="triangle")


class TestConstruction:
    def test_adjacency_is_symmetrised(self):
        topology = static_graph({0: {1}, 1: set(), 2: {1}})
        assert topology.neighbors(1) == (0, 2)

    def test_name_is_kept(self):
        assert triangle().name == "triangle"

    @pytest.mark.parametrize("node", [-1, 0, 3])
    def test_joins_are_refused(self, node, rng):
        # Membership is fixed: a join of a live, a new or a negative id
        # raises, and leaves the rows as they were.
        topology = triangle()
        with pytest.raises(TopologyError, match="fixed membership"):
            topology.on_node_added(node, rng)
        assert topology.node_ids().tolist() == [0, 1, 2]
        assert edge_list(topology) == [(0, 1), (0, 2), (1, 2)]


class TestQueries:
    def test_node_ids(self):
        assert triangle().node_ids().tolist() == [0, 1, 2]

    def test_neighbors(self):
        assert triangle().neighbors(0) == (1, 2)

    def test_neighbors_unknown_node(self):
        with pytest.raises(TopologyError):
            triangle().neighbors(99)

    def test_size_and_contains(self):
        topology = triangle()
        assert topology.size() == 3
        assert topology.contains(1)
        assert not topology.contains(7)


class TestMutation:
    def test_select_peers_batch_returns_neighbours(self, rng):
        peers = triangle().select_peers_batch(np.zeros(20, dtype=np.int64), rng.generator)
        assert set(peers.tolist()) <= {1, 2}

    def test_select_peers_batch_isolated_node_returns_minus_one(self, rng):
        topology = static_graph({0: set(), 1: set()})
        assert topology.select_peers_batch(np.array([0]), rng.generator).tolist() == [-1]

    def test_remove_node_removes_incident_edges(self):
        topology = triangle()
        topology.on_node_removed(1)
        assert not topology.contains(1)
        assert topology.neighbors(0) == (2,)
        assert edge_list(topology) == [(0, 2)]

    def test_remove_unknown_node_is_noop(self):
        topology = triangle()
        topology.on_node_removed(42)
        assert topology.size() == 3


def assert_matches_oracle(overlay, graph):
    """``overlay`` holds exactly ``graph``, its nodes ascending."""
    order = sorted(graph)
    assert overlay.node_ids().tolist() == order
    assert overlay.size() == len(order)
    for node in order:
        assert overlay.neighbors(node) == tuple(sorted(graph[node]))


class TestAgainstNetworkxOracle:
    """Random graphs through random crash sequences, checked against a
    ``networkx.Graph`` kept by the test."""

    @settings(max_examples=75, deadline=None)
    @given(data=st.data())
    def test_crash_sequences(self, data):
        size = data.draw(st.integers(0, 12))
        adjacency = {
            node: data.draw(
                st.lists(
                    st.sampled_from([other for other in range(size) if other != node]),
                    unique=True,
                    max_size=4,
                )
                if size > 1
                else st.just([])
            )
            for node in range(size)
        }
        graph = nx.Graph()
        graph.add_nodes_from(range(size))
        graph.add_edges_from(
            (node, peer) for node, peers in adjacency.items() for peer in peers
        )
        topology = static_graph(adjacency, name="oracle")
        # The same graph adopted into the second slot of a two-replica
        # block: its view goes through every crash, the first slot none.
        block = ReplicatedStaticBlock.from_builder(2, lambda replica: static_graph(adjacency))
        untouched, view = block.view(0), block.view(1)
        before = to_networkx(untouched)

        for node in data.draw(st.lists(st.integers(0, size + 2), max_size=8)):
            for overlay in (topology, view):
                overlay.on_node_removed(node)
            if node in graph:
                graph.remove_node(node)
            assert_matches_oracle(topology, graph)
            assert_matches_oracle(view, graph)

        assert nx.utils.graphs_equal(to_networkx(untouched), before)
        for a in range(size + 3):
            assert topology.contains(a) == (a in graph)
        assert nx.utils.graphs_equal(to_networkx(topology), graph)
        assert nx.utils.graphs_equal(to_networkx(view), graph)


def assert_rows_match_oracle(size, sources, targets, neighbours, degrees):
    """``neighbours``/``degrees`` hold the undirected graph of the edge list."""
    oracle = {node: set() for node in range(size)}
    for a, b in zip(sources.tolist(), targets.tolist()):
        oracle[a].add(b)
        oracle[b].add(a)
    assert neighbours.dtype == np.int32 and degrees.dtype == np.int64
    assert degrees.tolist() == [len(oracle[node]) for node in range(size)]
    assert neighbours.tolist() == [
        peer for node in range(size) for peer in sorted(oracle[node])
    ]


class TestRowsFromEdges:
    """The edge-list -> rows kernel against a dict-of-sets oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flat_edge_lists(self, data):
        # Edges listed once, in both directions and repeated; ids no edge
        # names stay isolated rows.
        size = data.draw(st.integers(1, 24))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                    lambda edge: edge[0] != edge[1]
                ),
                max_size=40,
            )
        )
        flipped = data.draw(st.lists(st.sampled_from(edges))) if edges else []
        listed = edges + [(b, a) for a, b in flipped] + edges[:3]
        pairs = np.asarray(listed, dtype=np.int64).reshape(-1, 2)
        sources, targets = pairs[:, 0], pairs[:, 1]
        neighbours, degrees = rows_from_edges(size, sources, targets)
        assert_rows_match_oracle(size, sources, targets, neighbours, degrees)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_k_out_draw_broadcast_and_flat(self, data):
        # The k-out callers pass the (owners, 1) column against the
        # (owners, k) draw matrix; the flat form of the same draw must give
        # the same rows.  Draws may repeat a peer within a row or pick each
        # other; nodes past the owners are isolated.
        owners = data.draw(st.integers(2, 12))
        size = owners + data.draw(st.integers(0, 4))
        k = data.draw(st.integers(1, 4))
        draws = np.asarray(
            [
                [
                    data.draw(st.integers(0, owners - 1).filter(lambda peer, u=u: peer != u))
                    for _ in range(k)
                ]
                for u in range(owners)
            ],
            dtype=np.int64,
        )
        column = np.arange(owners, dtype=np.int64)[:, None]
        neighbours, degrees = rows_from_edges(size, column, draws)
        sources, targets = np.repeat(column[:, 0], k), draws.ravel()
        flat_neighbours, flat_degrees = rows_from_edges(size, sources, targets)
        assert np.array_equal(neighbours, flat_neighbours)
        assert np.array_equal(degrees, flat_degrees)
        assert_rows_match_oracle(size, sources, targets, neighbours, degrees)

    def test_int32_edges_past_two_to_the_31_keys(self):
        # At N = 50,000 the key owner * N + neighbour passes 2^31, so
        # int32 edge arrays must be widened before the multiply, not after.
        size, k = 50_000, 3
        draws = sample_distinct_peers(size, k, np.random.default_rng(5))
        owners = np.arange(size, dtype=np.int32)
        expected_neighbours, expected_degrees = rows_from_edges(
            size, owners.astype(np.int64)[:, None], draws.astype(np.int64)
        )
        for sources, targets in (
            (owners.astype(np.int64)[:, None], draws),
            (np.repeat(owners, k), draws.ravel()),
            (draws.ravel(), np.repeat(owners, k)),
        ):
            neighbours, degrees = rows_from_edges(size, sources, targets)
            assert np.array_equal(neighbours, expected_neighbours)
            assert np.array_equal(degrees, expected_degrees)
        assert int(expected_degrees.sum()) == expected_neighbours.size
        assert expected_neighbours.max() == size - 1


def band_budget(keys):
    """Patch the kernel's key budget to ``keys``."""
    return mock.patch.object(replicated, "_BAND_KEYS", keys)


def assert_bands_match_one_band(size, sources, targets, budget):
    """Rows built under a ``budget`` of keys equal those at the real budget and the oracle.

    At the real budget a graph below 46,341 nodes is one band.
    """
    expected_neighbours, expected_degrees = rows_from_edges(size, sources, targets)
    with band_budget(budget):
        neighbours, degrees = rows_from_edges(size, sources, targets)
    assert np.array_equal(neighbours, expected_neighbours)
    assert np.array_equal(degrees, expected_degrees)
    flat_sources, flat_targets = (
        np.broadcast_to(ids, np.broadcast(sources, targets).shape).reshape(-1)
        for ids in (sources, targets)
    )
    assert_rows_match_oracle(size, flat_sources, flat_targets, neighbours, degrees)


class TestRowBands:
    """Rows built in bands of a patched key budget against the one-band kernel.

    A budget of 1 to 40 keys splits these small graphs into many bands of
    one or a few rows, chunks of a few keys and compaction spans that cut
    rows; every graph below 46,341 nodes is one band at the real budget.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), budget=st.integers(1, 40))
    def test_flat_edge_lists(self, data, budget):
        # Edges listed once, in both directions and repeated, in any order;
        # ids past the last one an edge names stay isolated rows.
        size = data.draw(st.integers(1, 30))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                    lambda edge: edge[0] != edge[1]
                ),
                max_size=60,
            )
        )
        flipped = data.draw(st.lists(st.sampled_from(edges))) if edges else []
        listed = edges + [(b, a) for a, b in flipped] + edges[:3]
        pairs = np.asarray(listed, dtype=np.int64).reshape(-1, 2)
        if data.draw(st.booleans()):
            pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
        size += data.draw(st.integers(0, 5))
        assert_bands_match_one_band(size, pairs[:, 0], pairs[:, 1], budget)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), budget=st.integers(1, 40))
    def test_k_out_draw_broadcast(self, data, budget):
        # The owner column against a draw matrix whose rows ascend, as the
        # k-out builders pass them, and against unsorted rows.
        owners = data.draw(st.integers(2, 16))
        size = owners + data.draw(st.integers(0, 4))
        k = data.draw(st.integers(1, 5))
        draws = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, owners - 2), min_size=k, max_size=k),
                    min_size=owners,
                    max_size=owners,
                )
            ),
            dtype=np.int32,
        )
        column = np.arange(owners, dtype=np.int64)[:, None]
        draws += draws >= column
        if data.draw(st.booleans()):
            draws.sort(axis=1)
        assert_bands_match_one_band(size, column, draws, budget)
        assert_bands_match_one_band(size, draws, column, budget)

    @pytest.mark.parametrize("budget", [1, 3, 40])
    def test_a_row_above_the_budget(self, budget):
        # A star: node 0's row holds every other node, far above the budget.
        size = 200
        leaves = np.arange(1, size, dtype=np.int64)
        assert_bands_match_one_band(size, np.zeros_like(leaves), leaves, budget)
        assert_bands_match_one_band(size, leaves, np.zeros_like(leaves), budget)

    def test_int32_keys_past_two_to_the_31(self):
        # At N = 50,000 the band-relative keys of a band must stay below
        # 2^31 at any budget.
        size, k = 50_000, 3
        draws = sample_distinct_peers(size, k, np.random.default_rng(5))
        owners = np.arange(size, dtype=np.int64)[:, None]
        assert_bands_match_one_band(size, owners, draws, 40)


def one_call_distinct_peers(size, fill, generator):
    """The sampler as one int64 draw of the whole block (the int32 sampler's oracle)."""
    draws = generator.integers(0, size - 1, size=(size, fill), dtype=np.int64)
    draws.sort(axis=1)
    for _ in range(64):
        duplicate = np.zeros((size, fill), dtype=bool)
        duplicate[:, 1:] = draws[:, 1:] == draws[:, :-1]
        count = int(np.count_nonzero(duplicate))
        if count == 0:
            break
        draws[duplicate] = generator.integers(0, size - 1, size=count, dtype=np.int64)
        draws.sort(axis=1)
    else:
        stuck = np.flatnonzero((draws[:, 1:] == draws[:, :-1]).any(axis=1))
        if stuck.size:
            others = np.broadcast_to(np.arange(size - 1, dtype=np.int64), (stuck.size, size - 1))
            draws[stuck] = np.sort(generator.permuted(others, axis=1)[:, :fill], axis=1)
    rows = np.arange(size, dtype=np.int64)[:, None]
    draws[draws >= rows] += 1
    return draws


def assert_sampler_matches_one_call(size, fill, seed):
    """Same rows as the one-call oracle, and the generator left in the same state."""
    generator = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    peers = sample_distinct_peers(size, fill, generator)
    expected = one_call_distinct_peers(size, fill, oracle)
    assert peers.dtype == np.int32 and peers.shape == (size, fill)
    assert np.array_equal(peers, expected)
    assert generator.integers(0, 1 << 62) == oracle.integers(0, 1 << 62)


class TestDistinctPeerSampler:
    """The chunked int32 sampler against the one-call int64 draw it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.integers(2, 120),
        share=st.floats(0.0, 1.0),
        chunk=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_chunks_match_the_one_call_draw(self, size, share, chunk, seed):
        # A patched budget puts several chunk boundaries inside small
        # blocks, most of them inside a row; share = 1 is fill = size - 1,
        # the exact-completion case.
        fill = 1 + round(share * (size - 2))
        with band_budget(chunk):
            assert_sampler_matches_one_call(size, fill, seed)

    @pytest.mark.parametrize("size", [_BAND_KEYS // 4 - 1, _BAND_KEYS // 4, _BAND_KEYS // 4 + 1])
    def test_sizes_around_the_chunk_boundary(self, size):
        # Four peers per node: one short chunk, one full chunk, or a full
        # chunk and one row.
        assert_sampler_matches_one_call(size, 4, 2004)

    @pytest.mark.parametrize("size", [3, 7, 60])
    def test_exact_completion_rows(self, size):
        assert_sampler_matches_one_call(size, size - 1, 16)

    def test_traced_peak_is_output_plus_one_chunk_plus_one_mask(self):
        size, fill = 100_000, 20
        generator = np.random.default_rng(2004)
        tracemalloc.start()
        try:
            peers = sample_distinct_peers(size, fill, generator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The int32 output, one int64 chunk of the budget's entries and one
        # bool mask.  Measured 16.4 MB (19.2 MB with 65,536-row chunks);
        # the one-call int64 draw peaked at 29.5 MB.
        assert peers.dtype == np.int32
        assert peak <= size * fill * 4 + _BAND_KEYS * 8 + size * fill

    def test_size_past_the_int32_id_range_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(TopologyError, match="int32"):
                sample_distinct_peers(2**31, 1, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2**31 > _ID_LIMIT
        assert peak < 1e6


def store_bytes(block):
    """Bytes of a block's ragged store: the neighbour buffer and the per-row arrays."""
    arrays = (block._neighbours, block._offsets, block._degrees, block._alive)
    return sum(array.nbytes for array in arrays)


def stored_entries(topology):
    """Stored neighbour entries of a one-replica topology: twice its edge count."""
    return int(topology._block._degrees.sum())


class TestRowStore:
    """The graph lives in block rows — by construction, not by stopwatch."""

    def test_random_overlay_build_stays_within_the_array_budget(self):
        size = 20_000
        tracemalloc.start()
        try:
            topology = build_overlay(
                TopologySpec("random", degree=20), size, RandomSource(3)
            )
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured: boxed sets 110 MB peak / 67 MB retained; rows with
        # int64 key compaction 20.7 MB peak, single-buffer keys and an
        # int32 neighbour column 14.8 MB peak / 7 MB retained (padded
        # rows, 5 MB); ragged rows with the draws freed before the key
        # sort 11.6 MB peak / 5.2 MB retained (the store is 3.7 MB).
        assert peak < 17e6
        assert retained < 20e6
        assert topology.size() == size

    def test_ragged_store_law(self):
        size = 20_000
        # Build once untraced, so first-use imports stay out of the count.
        build_overlay(TopologySpec("random", degree=20), 100, RandomSource(2))
        tracemalloc.start()
        try:
            topology = build_overlay(TopologySpec("random", degree=20), size, RandomSource(3))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = topology._block
        stored = stored_entries(topology)
        assert block._neighbours.size == stored
        # The store: 4 B per stored neighbour (int32), 17 B per row (int64
        # offset and degree, one alive flag), no max-degree term.
        assert store_bytes(block) == 4 * stored + 17 * size
        # The topology keeps nothing per node besides: its node order is
        # its alive rows, ascending.  A node-id list of Python ints read
        # 39.7 B per node more.
        assert retained <= 4 * stored + 17 * size + 16_384

    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec("ring-lattice", degree=20),
            TopologySpec("watts-strogatz", degree=20, beta=0.25),
            TopologySpec("watts-strogatz", degree=20, beta=1.0),
            TopologySpec("scale-free", degree=20),
        ],
        ids=["ring-lattice", "ws-0.25", "ws-1.0", "scale-free"],
    )
    def test_edge_array_builders_stay_within_the_array_budget(self, spec):
        # Budget: the ragged store plus 16 int64 words (128 B) per edge
        # (64 B per stored entry) for the edge arrays, both directions'
        # sort keys and the builder's scratch.  Measured at N=2e4 above
        # the store: ring 17 B/edge, W-S 40 (beta 0.25) and 88 (beta 1),
        # scale-free 34; the dict-of-sets builders took 263-382 B/edge.
        # On the padded store the scale-free term was its hub-wide rows
        # (82 MB against 4 MB ragged), so that case could not fail.
        tracemalloc.start()
        try:
            topology = build_overlay(spec, 20_000, RandomSource(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= store_bytes(topology._block) + 64 * stored_entries(topology)

    def test_crashes_and_peer_draws_leave_no_python_containers(self):
        topology = build_overlay(TopologySpec("random", degree=5), 200, RandomSource(3))
        topology.on_node_removed(7)
        generator = np.random.Generator(np.random.PCG64(0))
        topology.select_peers_batch(np.asarray(topology.node_ids()), generator)
        for holder in (topology, topology._block):
            for name, value in vars(holder).items():
                assert not isinstance(value, (dict, set, frozenset)), name


def assert_same_graph(overlay, oracle, ids):
    """``overlay`` holds the nodes ``ids`` and answers for them as the freshly
    built ``oracle`` does, draw for draw."""
    assert overlay.node_ids().tolist() == ids
    for node in ids:
        assert overlay.neighbors(node) == oracle.neighbors(node)
    draws = np.tile(np.asarray(ids, dtype=np.int64), 5)
    peers = overlay.select_peers_batch(draws, np.random.Generator(np.random.PCG64(11)))
    expected = oracle.select_peers_batch(draws, np.random.Generator(np.random.PCG64(11)))
    assert peers.tolist() == expected.tolist()


def surviving_graph(adjacency, order):
    """A fresh build of the edges among the nodes of ``order``.

    It keeps every id of ``adjacency``: the others are isolated, not
    crashed, so the oracle itself has no crash to settle.
    """
    kept = set(order)
    return static_graph(
        {
            node: {peer for peer in peers if peer in kept} if node in kept else set()
            for node, peers in adjacency.items()
        }
    )


class TestRaggedStore:
    """The ragged store's deferred crash removal against a ``StaticTopology``
    built fresh from the surviving edges."""

    #: Victims 1, 2 and 3 are a triangle, and live node 0 neighbours all
    #: three (and 4 two of them), so one crash event deletes three entries
    #: from row 0 and two from row 4.
    ADJACENCY = {
        0: {1, 2, 3, 5, 7},
        1: {2, 3, 4},
        2: {3, 6},
        3: {4},
        4: {5},
        5: {6},
        6: {7},
        7: set(),
    }

    def symmetric(self):
        adjacency = {node: set() for node in self.ADJACENCY}
        for node, peers in self.ADJACENCY.items():
            for peer in peers:
                adjacency[node].add(peer)
                adjacency[peer].add(node)
        return adjacency

    def test_one_crash_event_of_adjacent_victims(self):
        adjacency = self.symmetric()
        topology = static_graph(adjacency)
        for victim in (2, 1, 3):
            topology.on_node_removed(victim)
        # Nothing has been read since the event, so it is still pending.
        assert topology._block._pending == [2, 1, 3]
        order = [0, 4, 5, 6, 7]
        assert_same_graph(topology, surviving_graph(adjacency, order), order)
        assert topology.neighbors(0) == (5, 7)
        assert degrees(topology) == [2, 1, 3, 2, 2]

    @pytest.mark.parametrize(
        "read",
        [
            lambda topology: [topology.neighbors(node) for node in (0, 4)],
            lambda topology: topology.select_peers_batch(
                np.tile(np.array([0, 4, 5]), 9), np.random.Generator(np.random.PCG64(3))
            ).tolist(),
            lambda topology: to_networkx(
                ReplicatedStaticBlock.from_builder(1, lambda replica: topology).view(0)
            ).edges(0),
        ],
        ids=["neighbors", "select_peers_batch", "from_builder"],
    )
    def test_first_read_after_a_crash_event_sees_it(self, read):
        # Each reader is the first call after the removals, so it alone
        # has to settle them.
        adjacency = self.symmetric()
        topology = static_graph(adjacency)
        for victim in (2, 1, 3):
            topology.on_node_removed(victim)
        assert sorted(read(topology)) == sorted(
            read(surviving_graph(adjacency, [0, 4, 5, 6, 7]))
        )

    def test_membership_reads_see_a_crash_event_before_it_settles(self):
        # Membership lives in the alive mask, so these reads answer at once
        # and leave the row deletions pending for the next row read.
        topology = static_graph(self.symmetric())
        for victim in (2, 1, 3):
            topology.on_node_removed(victim)
        assert topology.node_ids().tolist() == [0, 4, 5, 6, 7]
        assert topology.size() == 5
        assert [topology.contains(node) for node in range(9)] == [
            True, False, False, False, True, True, True, True, False
        ]
        assert topology._block._pending == [2, 1, 3]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_crash_events_match_a_fresh_build(self, data):
        # Dense random graphs in both replicas of a block, several crash
        # events per replica, each settled in one pass at the next read.
        size = data.draw(st.integers(2, 30))
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
        block = ReplicatedStaticBlock.from_builder(2, lambda replica: static_graph(adjacency))
        orders = [list(range(size)), list(range(size))]
        for _ in range(data.draw(st.integers(1, 3))):
            for replica in (0, 1):
                victims = data.draw(st.lists(st.integers(0, size - 1), unique=True))
                for victim in victims:
                    block.view(replica).on_node_removed(victim)
                    if victim in orders[replica]:
                        orders[replica].remove(victim)
            for replica in (0, 1):
                oracle = surviving_graph(adjacency, orders[replica])
                assert_same_graph(block.view(replica), oracle, orders[replica])
