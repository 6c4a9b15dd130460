"""Tests for the NEWSCAST overlay protocol."""

import numpy as np
import pytest

from repro.common.errors import MembershipError
from repro.common.rng import RandomSource
from repro.newscast import NewscastOverlay


@pytest.fixture
def overlay(rng):
    return NewscastOverlay.bootstrap(80, cache_size=12, rng=rng.child("newscast"))


class TestBootstrap:
    def test_all_nodes_present(self, overlay):
        assert overlay.size() == 80
        assert sorted(overlay.node_ids()) == list(range(80))

    def test_caches_filled_to_capacity(self, overlay):
        for node in overlay.node_ids():
            assert len(overlay.cache_of(node)) == 12

    def test_no_self_references(self, overlay):
        for node in overlay.node_ids():
            assert node not in overlay.cache_of(node).peer_ids()

    def test_weakly_connected(self, overlay):
        assert overlay.is_weakly_connected()

    def test_bootstrap_with_tiny_network(self, rng):
        overlay = NewscastOverlay.bootstrap(3, cache_size=10, rng=rng)
        assert overlay.size() == 3
        for node in overlay.node_ids():
            assert len(overlay.cache_of(node)) >= 1


class TestExchanges:
    def test_after_cycle_advances_clock_and_exchanges(self, overlay, rng):
        before = overlay.clock
        overlay.after_cycle(rng)
        assert overlay.clock == before + 1
        assert overlay.last_cycle_exchanges > 0

    def test_select_peers_batch_comes_from_cache(self, overlay, rng):
        nodes = list(overlay.node_ids())[:10]
        peers = overlay.select_peers_batch(np.asarray(nodes), rng.generator)
        for node, peer in zip(nodes, peers.tolist()):
            assert peer in overlay.cache_of(node).peer_ids()

    def test_select_peers_batch_unknown_node_returns_minus_one(self, overlay, rng):
        assert overlay.select_peers_batch(np.array([9999]), rng.generator).tolist() == [-1]

    def test_batch_draw_is_one_cache_draw_per_known_node(self, overlay):
        # The stream the per-node draws consumed before the batch existed:
        # one integers(0, len(cache)) call per known node, in order.
        nodes = [3, 9999, 5, -1, 7]
        peers = overlay.select_peers_batch(np.asarray(nodes), RandomSource(4).generator)
        rng = RandomSource(4)
        expected = [
            overlay.cache_of(node).random_peer(rng) if overlay.contains(node) else -1
            for node in nodes
        ]
        assert peers.tolist() == expected

    def test_negative_join_rejected(self, overlay, rng):
        with pytest.raises(MembershipError):
            overlay.on_node_added(-1, rng)
        assert overlay.size() == 80

    def test_neighbors_unknown_node_raises(self, overlay):
        with pytest.raises(MembershipError):
            overlay.neighbors(9999)


class TestSelfRepair:
    def test_crashed_node_references_age_out(self, rng):
        overlay = NewscastOverlay.bootstrap(100, cache_size=10, rng=rng.child("boot"))
        # Crash a quarter of the network.
        for node in range(25):
            overlay.on_node_removed(node)
        assert overlay.size() == 75
        initial_stale = overlay.stale_reference_fraction()
        for _ in range(15):
            overlay.after_cycle(rng)
        assert overlay.stale_reference_fraction() < initial_stale
        assert overlay.stale_reference_fraction() < 0.05

    def test_overlay_remains_connected_after_crashes(self, rng):
        overlay = NewscastOverlay.bootstrap(100, cache_size=12, rng=rng.child("boot"))
        for node in range(30):
            overlay.on_node_removed(node)
        for _ in range(10):
            overlay.after_cycle(rng)
        assert overlay.is_weakly_connected()

    def test_in_degree_stays_balanced(self, rng):
        overlay = NewscastOverlay.bootstrap(120, cache_size=10, rng=rng.child("boot"))
        for _ in range(10):
            overlay.after_cycle(rng)
        in_degrees = list(overlay.in_degree_distribution().values())
        assert max(in_degrees) < 10 * 10  # no node dominates the caches


class TestMembershipChanges:
    def test_join_bootstraps_from_contact(self, overlay, rng):
        overlay.on_node_added(500, rng)
        assert overlay.contains(500)
        cache = overlay.cache_of(500)
        assert len(cache) > 0
        assert 500 not in cache.peer_ids()

    def test_join_duplicate_rejected(self, overlay, rng):
        with pytest.raises(MembershipError):
            overlay.on_node_added(5, rng)

    def test_new_node_becomes_known_to_others(self, overlay, rng):
        overlay.on_node_added(500, rng)
        for _ in range(10):
            overlay.after_cycle(rng)
        referencing = sum(
            1 for node in overlay.node_ids() if 500 in overlay.cache_of(node).peer_ids()
        )
        assert referencing >= 1

    def test_remove_then_rejoin(self, overlay, rng):
        overlay.on_node_removed(10)
        assert not overlay.contains(10)
        overlay.on_node_added(10, rng)
        assert overlay.contains(10)

    def test_remove_unknown_node_is_noop(self, overlay):
        overlay.on_node_removed(98765)
        assert overlay.size() == 80
