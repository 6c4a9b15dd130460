"""Tests for the overlay graph generators and the factory."""

import hashlib

import networkx as nx
import numpy as np
import pytest
from static_graphs import degrees, edge_list, to_networkx

from repro.common.errors import ConfigurationError, TopologyError
from repro.common.rng import RandomSource
from repro.topology import (
    TOPOLOGY_KINDS,
    CompleteOverlay,
    TopologySpec,
    barabasi_albert_topology,
    build_overlay,
    complete_topology,
    random_k_out_topology,
    ring_lattice_topology,
    scale_free,
    watts_strogatz,
    watts_strogatz_topology,
)
from repro.newscast import NewscastOverlay, VectorizedNewscastOverlay


class TestRandomKOut:
    def test_size_and_minimum_degree(self, rng):
        topology = random_k_out_topology(80, 6, rng)
        assert topology.size() == 80
        assert min(degrees(topology)) >= 6

    def test_connected_for_reasonable_degree(self, rng):
        topology = random_k_out_topology(100, 8, rng)
        assert nx.is_connected(to_networkx(topology))

    def test_no_self_loops(self, rng):
        topology = random_k_out_topology(50, 5, rng)
        for node in topology.node_ids():
            assert node not in topology.neighbors(node)

    def test_degree_must_be_below_size(self, rng):
        with pytest.raises(ConfigurationError):
            random_k_out_topology(5, 5, rng)

    def test_deterministic_given_seed(self):
        a = random_k_out_topology(40, 4, RandomSource(5))
        b = random_k_out_topology(40, 4, RandomSource(5))
        assert edge_list(a) == edge_list(b)


class TestRingLattice:
    def test_regular_degree(self):
        topology = ring_lattice_topology(30, 6)
        assert set(degrees(topology)) == {6}

    def test_ring_neighbours_are_nearest(self):
        topology = ring_lattice_topology(10, 2)
        assert set(topology.neighbors(0)) == {1, 9}

    def test_odd_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_lattice_topology(10, 3)

    def test_connected(self):
        assert nx.is_connected(to_networkx(ring_lattice_topology(50, 4)))

    #: sha256 of the padded int32 rows then the int64 degrees, as the
    #: dict-of-sets construction built them before the closed form.
    ROWS_SHA256 = {
        (5, 2): "0ccc2b8c9486d08c16c4f0d260eea50ac01aeedc6dc38034d71bc759d0fa701b",
        (21, 20): "f50a801bf5e66f0b74487d60665c99517431483f68b57fd86cd9218ee8407d3f",
        (400, 20): "27eccc56b65003e97032006e7883287ab86de34b74dbdcbcff2636b5d7a69081",
        (2001, 20): "32298157541919c28f211dfe7f708e36f80d25253e317bd5fb9470e4bf8a9930",
    }

    @pytest.mark.parametrize("size, degree", sorted(ROWS_SHA256))
    def test_rows_and_degrees_are_pinned(self, size, degree):
        block = ring_lattice_topology(size, degree)._block
        assert rows_digest(block) == self.ROWS_SHA256[(size, degree)]
        assert block.view(0).node_ids().tolist() == list(range(size))


def rows_digest(block):
    """sha256 of a block's rows as the padded store laid them out.

    The rows are rebuilt as one int32 matrix, sentinel-padded to the
    largest degree, followed by the int64 degrees — the bytes the padded
    store held, so digests pinned on it still apply to the ragged one.
    """
    assert block._neighbours.dtype == np.int32 and block._degrees.dtype == np.int64
    degrees = block._degrees
    rows = np.full(
        (degrees.size, max(1, int(degrees.max()))), np.iinfo(np.int32).max, dtype=np.int32
    )
    for row, (start, count) in enumerate(zip(block._offsets.tolist(), degrees.tolist())):
        rows[row, :count] = block._neighbours[start : start + count]
    return hashlib.sha256(rows.tobytes() + degrees.tobytes()).hexdigest()


#: ``rows_digest`` of each randomised family at seed 2004, computed on the
#: padded store: random 4-out, Watts-Strogatz k=4 at beta=0.25 and
#: Barabasi-Albert m=3.
RANDOMISED_ROWS_SHA256 = {
    ("random", 21): "e90ec2fe096e4cbe3ccd56d19b738a478fe4ee1f7ec4d956f0b5d0f743763c66",
    ("random", 400): "ba0cf4142819b3a55a263fa7ee18bb878be6da78a8a1e8a4d2795c33830f71c8",
    ("watts-strogatz", 21): "5630455ba0b0ce5bc2598e53fa4b45a281da5d314a2ad0f438ad7ebed12b9177",
    ("watts-strogatz", 400): "cacfc5deb29d6da2c3f4f78fe4df03c0b20bad3e7e792fa17fe1a06be6b140dd",
    ("scale-free", 21): "f5ceac57a5acca9bc76acf905fa0f27a8e0a484299a9615ff24fe3f7f6f891ae",
    ("scale-free", 400): "97f8841d6290c15474b9ca0d01eee369201b784d0f9d02691c13e4c5b5dd8083",
}


@pytest.mark.parametrize("family, size", sorted(RANDOMISED_ROWS_SHA256))
def test_randomised_rows_and_degrees_are_pinned(family, size):
    build = {
        "random": lambda rng: random_k_out_topology(size, 4, rng),
        "watts-strogatz": lambda rng: watts_strogatz_topology(size, 4, 0.25, rng),
        "scale-free": lambda rng: barabasi_albert_topology(size, 3, rng),
    }[family]
    block = build(RandomSource(2004))._block
    assert rows_digest(block) == RANDOMISED_ROWS_SHA256[(family, size)]


class TestWattsStrogatz:
    def test_beta_zero_is_the_lattice(self, rng):
        lattice = ring_lattice_topology(40, 6)
        ws = watts_strogatz_topology(40, 6, 0.0, rng)
        assert edge_list(ws) == edge_list(lattice)

    def test_edge_count_preserved_by_rewiring(self, rng):
        ws = watts_strogatz_topology(60, 6, 0.5, rng)
        assert len(edge_list(ws)) == 60 * 6 // 2

    def test_high_beta_reduces_clustering(self):
        ordered = watts_strogatz_topology(120, 8, 0.0, RandomSource(3))
        rewired = watts_strogatz_topology(120, 8, 1.0, RandomSource(3))
        assert nx.average_clustering(to_networkx(rewired)) < nx.average_clustering(
            to_networkx(ordered)
        )

    def test_invalid_beta_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            watts_strogatz_topology(40, 6, 1.5, rng)

    @pytest.mark.parametrize("size", [12, 13, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_densest_degree_rewires_every_edge_and_keeps_the_count(self, size, seed):
        # The largest even k below size - 1: every rewire must still land.
        degree = (size - 2) // 2 * 2
        topology = watts_strogatz_topology(size, degree, 1.0, RandomSource(seed))
        assert len(edge_list(topology)) == size * degree // 2
        assert all(node not in topology.neighbors(node) for node in range(size))

    def test_exact_completion_alone_builds_a_simple_graph(self, monkeypatch):
        # With no redraw pass every repeat goes through the exact completion.
        monkeypatch.setattr(watts_strogatz, "_REDRAW_PASSES", 0)
        monkeypatch.setattr(scale_free, "_REDRAW_PASSES", 0)
        for seed in range(3):
            ws = watts_strogatz_topology(30, 8, 0.8, RandomSource(seed))
            assert len(edge_list(ws)) == 30 * 8 // 2
            ba = barabasi_albert_topology(60, 20, RandomSource(seed))
            assert len(edge_list(ba)) == 20 * (60 - 21) + 20 * 21 // 2
            assert min(degrees(ba)) >= 20

    def test_deterministic_given_seed(self):
        a = watts_strogatz_topology(40, 4, 0.3, RandomSource(9))
        b = watts_strogatz_topology(40, 4, 0.3, RandomSource(9))
        assert edge_list(a) == edge_list(b)


class TestBarabasiAlbert:
    def test_size(self, rng):
        topology = barabasi_albert_topology(100, 3, rng)
        assert topology.size() == 100

    def test_minimum_degree_is_attachment(self, rng):
        topology = barabasi_albert_topology(100, 3, rng)
        assert min(degrees(topology)) >= 3

    def test_heavy_tail_degree_distribution(self, rng):
        topology = barabasi_albert_topology(300, 3, rng)
        counts = degrees(topology)
        assert max(counts) > 4 * (sum(counts) / len(counts))

    def test_connected(self, rng):
        assert nx.is_connected(to_networkx(barabasi_albert_topology(150, 2, rng)))

    def test_attachment_must_be_below_size(self, rng):
        with pytest.raises(ConfigurationError):
            barabasi_albert_topology(3, 3, rng)


class TestCompleteOverlay:
    def test_every_node_knows_every_other(self):
        overlay = complete_topology(6)
        for node in range(6):
            assert sorted(overlay.neighbors(node)) == [peer for peer in range(6) if peer != node]

    def test_select_peers_batch_never_returns_self(self, rng):
        overlay = complete_topology(10)
        peers = overlay.select_peers_batch(np.full(50, 3, dtype=np.int64), rng.generator)
        assert 3 not in peers.tolist()
        assert set(peers.tolist()) <= set(range(10))

    def test_single_node_has_no_peer(self, rng):
        overlay = CompleteOverlay(1)
        assert overlay.select_peers_batch(np.array([0]), rng.generator).tolist() == [-1]

    def test_remove_nodes_and_refuse_joins(self, rng):
        overlay = CompleteOverlay(5)
        overlay.on_node_removed(2)
        overlay.on_node_removed(2)
        assert overlay.size() == 4
        assert not overlay.contains(2)
        assert overlay.node_ids().tolist() == [0, 1, 3, 4]
        assert overlay.neighbors(4) == (0, 1, 3)
        with pytest.raises(TopologyError, match="fixed membership"):
            overlay.on_node_added(7, rng)
        assert not overlay.contains(7) and overlay.size() == 4

    @pytest.mark.parametrize("crashed", [(), (0, 4, 9)], ids=["dense", "crashed"])
    def test_batch_is_one_skip_self_integers_draw(self, crashed):
        # One integers(0, n-1) draw per caller, shifted past the caller's
        # own position among the ascending live ids: the stream the cycle
        # plans and the figure goldens were recorded with.
        overlay = CompleteOverlay(10)
        for node in crashed:
            overlay.on_node_removed(node)
        live = [node for node in range(10) if node not in crashed]
        callers = np.array(live * 3, dtype=np.int64)
        draws = np.random.default_rng(4).integers(0, len(live) - 1, size=callers.size)
        expected = [
            live[draw + (draw >= live.index(caller))]
            for caller, draw in zip(callers.tolist(), draws.tolist())
        ]
        peers = overlay.select_peers_batch(callers, np.random.default_rng(4))
        assert peers.tolist() == expected

    def test_node_ids_are_read_only_and_follow_crashes(self):
        overlay = CompleteOverlay(6)
        before = overlay.node_ids()
        with pytest.raises(ValueError):
            before[0] = 5
        overlay.on_node_removed(1)
        assert before.tolist() == list(range(6))
        assert overlay.node_ids().tolist() == [0, 2, 3, 4, 5]

    def test_neighbors_excludes_self(self):
        overlay = CompleteOverlay(4)
        assert set(overlay.neighbors(1)) == {0, 2, 3}

    def test_batch_returns_minus_one_for_negative_unknown_and_removed_ids(self):
        # The contract the static and NEWSCAST stores keep: -1 never wraps
        # to the last position, out-of-table ids never raise IndexError.
        overlay = CompleteOverlay(10)
        overlay.on_node_removed(3)
        ids = np.array([-1, 10, 1000, 3, 0, 9])
        peers = overlay.select_peers_batch(ids, np.random.default_rng(1))
        assert peers[:4].tolist() == [-1] * 4
        for node, peer in zip(ids[4:], peers[4:]):
            assert 0 <= peer < 10 and peer not in (3, node)

    def test_batch_draws_only_for_known_ids(self):
        # Unknown ids consume no randomness: the known ids get exactly the
        # peers an all-known call draws, so engine streams are unchanged.
        overlay = CompleteOverlay(10)
        mixed = overlay.select_peers_batch(
            np.array([2, -1, 5, 42, 7]), np.random.default_rng(8)
        )
        known = overlay.select_peers_batch(np.array([2, 5, 7]), np.random.default_rng(8))
        assert mixed[[0, 2, 4]].tolist() == known.tolist()


class TestFactory:
    @pytest.mark.parametrize("kind", ["random", "ring-lattice", "watts-strogatz", "scale-free"])
    def test_builds_static_kinds(self, kind, rng):
        spec = TopologySpec(kind, degree=4, beta=0.2)
        overlay = build_overlay(spec, 40, rng)
        assert overlay.size() == 40

    def test_builds_complete(self, rng):
        overlay = build_overlay(TopologySpec("complete"), 25, rng)
        assert overlay.size() == 25

    def test_builds_newscast(self, rng):
        spec = TopologySpec("newscast", degree=8, params={"vectorized": False})
        overlay = build_overlay(spec, 40, rng)
        assert isinstance(overlay, NewscastOverlay)
        assert overlay.size() == 40

    @pytest.mark.parametrize("params", [{}, {"vectorized": True}])
    def test_newscast_is_array_native_unless_the_oracle_is_named(self, rng, params):
        spec = TopologySpec("newscast", degree=8, params=params)
        assert spec.builds_array_newscast()
        overlay = build_overlay(spec, 40, rng)
        assert isinstance(overlay, VectorizedNewscastOverlay)
        assert overlay.size() == 40

    @pytest.mark.parametrize(
        "kind, params, accepted",
        [
            ("newscast", {"vectorised": True}, "['vectorized']"),
            ("newscast", {"warmup_cycles": 2}, "['vectorized']"),
            ("complete", {"materialize": True}, "[]"),
            ("random", {"bogus": 1}, "[]"),
            ("Watts-Strogatz", {"beta": 0.5}, "[]"),
        ],
    )
    def test_unknown_params_key_rejected_naming_accepted_keys(self, kind, params, accepted):
        with pytest.raises(ConfigurationError, match="accepted keys") as error:
            TopologySpec(kind, degree=4, params=params)
        assert accepted in str(error.value)
        assert repr(next(iter(params))) in str(error.value)

    @pytest.mark.parametrize("value", [1, 0, "yes", None])
    def test_non_bool_vectorized_rejected(self, value):
        with pytest.raises(ConfigurationError, match="must be a bool"):
            TopologySpec("newscast", params={"vectorized": value})

    @pytest.mark.parametrize("bad", [2.0, 2.5, True, "4"])
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_non_integral_size_and_degree_rejected(self, kind, bad):
        # Both used to reach NumPy and fail there with a raw TypeError.
        with pytest.raises(ConfigurationError, match="degree"):
            TopologySpec(kind, degree=bad)
        with pytest.raises(ConfigurationError, match="size"):
            build_overlay(TopologySpec(kind, degree=4), bad, RandomSource(1))

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            build_overlay(TopologySpec("hypercube"), 16, rng)

    def test_retired_regular_kind_rejected_naming_the_accepted_kinds(self, rng):
        with pytest.raises(ConfigurationError, match="unknown topology kind 'regular'") as error:
            build_overlay(TopologySpec("regular", degree=4), 16, rng)
        for kind in TOPOLOGY_KINDS:
            assert repr(kind) in str(error.value)

    def test_all_declared_kinds_buildable(self, rng):
        for kind in TOPOLOGY_KINDS:
            spec = TopologySpec(kind, degree=4, beta=0.1)
            overlay = build_overlay(spec, 30, rng.child(kind))
            assert overlay.size() == 30

    def test_labels(self):
        assert "beta" in TopologySpec("watts-strogatz", beta=0.25).label()
        assert "newscast" in TopologySpec("newscast", degree=20).label()
        assert TopologySpec("random").label() == "random"
