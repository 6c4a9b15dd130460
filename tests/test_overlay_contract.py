"""The peer-selection contract every overlay store keeps.

The engines draw peers only through ``select_peers_batch`` (one call per
cycle or window); failure models remove and add nodes through
``on_node_removed`` / ``on_node_added``.  Every store the factory builds —
the static row store behind the four generated graphs, the O(N) complete
overlay, array NEWSCAST and the dict NEWSCAST oracle — answers those calls the same way:

* negative, out-of-table and removed identifiers get no peer (``-1``),
  and the first two consume no randomness, so a batch that mixes them in
  draws exactly what the all-known batch draws;
* every peer drawn comes from the caller's own ``neighbors`` list;
* on NEWSCAST a joined node is known at once, and a negative join is
  refused; every static store refuses every join (fixed membership).
"""

import numpy as np
import pytest

from repro.common.errors import ReproError, TopologyError
from repro.common.rng import RandomSource
from repro.topology import TopologySpec, build_overlay
from repro.topology.provider import OverlayProvider

SIZE = 30

STORES = {
    "random": TopologySpec("random", degree=4),
    "ring-lattice": TopologySpec("ring-lattice", degree=4),
    "watts-strogatz": TopologySpec("watts-strogatz", degree=4, beta=0.2),
    "scale-free": TopologySpec("scale-free", degree=3),
    "complete": TopologySpec("complete"),
    "newscast": TopologySpec("newscast", degree=8),
    "newscast-dict": TopologySpec("newscast", degree=8, params={"vectorized": False}),
}
#: The stores that take joins; every other one has fixed membership.
JOINABLE = ("newscast", "newscast-dict")


def build(kind):
    return build_overlay(STORES[kind], SIZE, RandomSource(41).child(kind))


@pytest.fixture(params=sorted(STORES))
def overlay(request):
    return build(request.param)


@pytest.fixture(params=JOINABLE)
def joinable(request):
    return build(request.param)


@pytest.fixture(params=sorted(set(STORES) - set(JOINABLE)))
def fixed_kind(request):
    return request.param


def draw(overlay, node_ids, seed=5):
    return overlay.select_peers_batch(
        np.asarray(node_ids, dtype=np.int64), np.random.default_rng(seed)
    )


class TestUnknownIdentifiers:
    def test_negative_ids_get_no_peer(self, overlay):
        assert draw(overlay, [-1, -2, -SIZE]).tolist() == [-1, -1, -1]

    def test_out_of_table_ids_get_no_peer(self, overlay):
        assert draw(overlay, [SIZE, SIZE + 1, 1000 * SIZE]).tolist() == [-1, -1, -1]

    def test_removed_ids_get_no_peer(self, overlay):
        overlay.on_node_removed(3)
        overlay.on_node_removed(SIZE - 1)
        peers = draw(overlay, [3, SIZE - 1, 0])
        assert peers[:2].tolist() == [-1, -1]
        assert peers[2] >= 0

    def test_unknown_ids_consume_no_randomness(self, overlay):
        known = [2, 5, 7, 11]
        mixed = draw(overlay, [2, -1, 5, SIZE, 7, 10 * SIZE, 11])
        assert mixed[[0, 2, 4, 6]].tolist() == draw(overlay, known).tolist()
        assert mixed[[1, 3, 5]].tolist() == [-1, -1, -1]

    def test_neighbors_of_an_unknown_id_raise(self, overlay):
        overlay.on_node_removed(6)
        for node in (-1, SIZE, 6):
            with pytest.raises(ReproError):
                overlay.neighbors(node)


class TestDraws:
    def test_empty_batch(self, overlay):
        peers = draw(overlay, [])
        assert peers.size == 0 and peers.dtype == np.int64

    def test_every_peer_is_a_neighbour(self, overlay):
        nodes = overlay.node_ids()
        for seed in range(3):
            peers = draw(overlay, nodes, seed)
            for node, peer in zip(nodes, peers.tolist()):
                assert peer != node
                assert peer in overlay.neighbors(node)


class TestMembership:
    def test_joined_node_is_known_at_once(self, joinable):
        joined = SIZE + 5
        joinable.on_node_added(joined, RandomSource(3))
        assert joinable.contains(joined)
        assert joinable.size() == SIZE + 1
        (peer,) = draw(joinable, [joined]).tolist()
        assert peer in joinable.neighbors(joined)

    def test_negative_join_rejected(self, joinable):
        with pytest.raises(ReproError):
            joinable.on_node_added(-1, RandomSource(3))
        assert joinable.size() == SIZE

    @pytest.mark.parametrize("node", [SIZE + 5, 3, -1], ids=["new", "live", "negative"])
    def test_static_stores_refuse_every_join(self, fixed_kind, node):
        overlay = build(fixed_kind)
        with pytest.raises(TopologyError, match="fixed membership"):
            overlay.on_node_added(node, RandomSource(3))
        assert overlay.node_ids().tolist() == list(range(SIZE))
        assert overlay.size() == SIZE

    def test_a_refused_join_leaves_rows_and_draws_as_built(self, fixed_kind):
        # The refusal consumes none of the joiner's randomness and touches
        # no row: the overlay still answers exactly as a fresh build.
        fixed, fresh = build(fixed_kind), build(fixed_kind)
        joiner_rng = RandomSource(3)
        with pytest.raises(TopologyError):
            fixed.on_node_added(SIZE, joiner_rng)
        assert joiner_rng.uniform(0.0, 1.0) == RandomSource(3).uniform(0.0, 1.0)
        nodes = list(range(SIZE))
        for node in nodes:
            assert fixed.neighbors(node) == fresh.neighbors(node)
        assert draw(fixed, nodes).tolist() == draw(fresh, nodes).tolist()


def test_the_batched_draw_is_the_only_peer_method():
    assert "select_peers_batch" in OverlayProvider.__abstractmethods__
    assert not hasattr(OverlayProvider, "select_peer")
