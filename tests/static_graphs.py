"""Hand-written static graphs for the tests, and their networkx readings.

Every static overlay is built through ``rows_from_edges`` and
``StaticTopology.from_rows`` over the dense ids ``0 .. N-1``; a graph on
sparse ids is a dense one whose missing ids have crashed.
"""

from __future__ import annotations

from typing import Collection, List, Mapping

import networkx as nx
import numpy as np

from repro.topology.base import StaticTopology
from repro.topology.replicated import rows_from_edges


def static_graph(
    adjacency: Mapping[int, Collection[int]], name: str = "static"
) -> StaticTopology:
    """The undirected graph of ``adjacency`` as a ``StaticTopology``.

    Rows span ``0`` to the largest id named; every id in that range the
    mapping has no key for is crashed after the build, with its edges.
    """
    named = [node for peers in adjacency.values() for node in peers] + list(adjacency)
    size = max(named, default=-1) + 1
    sources = [node for node, peers in adjacency.items() for _ in peers]
    targets = [peer for peers in adjacency.values() for peer in peers]
    topology = StaticTopology.from_rows(
        *rows_from_edges(
            size, np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)
        ),
        name=name,
    )
    for node in sorted(set(range(size)) - set(adjacency)):
        topology.on_node_removed(node)
    return topology


def to_networkx(overlay) -> nx.Graph:
    """The overlay's live nodes and neighbour edges as an undirected graph."""
    graph = nx.Graph()
    ids = overlay.node_ids().tolist()
    graph.add_nodes_from(ids)
    graph.add_edges_from((node, peer) for node in ids for peer in overlay.neighbors(node))
    return graph


def edge_list(overlay) -> List[tuple]:
    """Every undirected edge once, as ``(low, high)``, sorted."""
    return sorted(
        (node, peer)
        for node in overlay.node_ids().tolist()
        for peer in overlay.neighbors(node)
        if node < peer
    )


def degrees(overlay) -> List[int]:
    """The degree of every live node, in id order."""
    return [len(overlay.neighbors(node)) for node in overlay.node_ids().tolist()]
