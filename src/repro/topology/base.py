"""Overlay abstractions shared by static topologies and NEWSCAST.

Two families of overlays implement the
:class:`~repro.topology.provider.OverlayProvider` interface (re-exported
here, its established import path):

* :class:`StaticTopology` — a fixed graph.  The concrete generators in
  this package (random k-out, complete, ring lattice, Watts–Strogatz,
  Barabási–Albert) all build instances of this class.  It keeps no
  Python containers: it is the one-replica view of a
  :class:`~repro.topology.replicated.ReplicatedStaticBlock`, the ragged
  int32 row store every static overlay lives in (memory: 4 bytes per
  stored neighbour, each edge stored once per endpoint, plus a per-row
  offset, degree and room of 8 bytes each over ``largest id + 1`` rows;
  no max-degree term, so a scale-free graph's hubs cost only their own
  rows).
* :class:`repro.newscast.VectorizedNewscastOverlay` — a dynamic overlay
  maintained by the NEWSCAST epidemic membership protocol (and its
  dict-based parity oracle :class:`repro.newscast.NewscastOverlay`).
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, List, Mapping, Set

import numpy as np

from ..common.errors import TopologyError
from .partitions import effective_components
from .provider import OverlayProvider
from .replicated import (
    _ID_LIMIT,
    ReplicatedStaticBlock,
    StaticBlockView,
    rows_from_edges,
)

__all__ = ["OverlayProvider", "StaticTopology"]


class StaticTopology(StaticBlockView):
    """A fixed overlay graph: the view of a one-replica block of its own.

    The graph is undirected: an edge ``(a, b)`` makes ``b`` a neighbour of
    ``a`` and vice versa.  Node removal deletes the node together with its
    incident edges; this models the "oracle" overlay used by the paper for
    static-topology experiments, where a crashed node simply disappears
    from every neighbour list.  Peer selection, membership changes,
    ``node_ids()`` (insertion order) and ``neighbors()`` (ascending) are
    the :class:`~repro.topology.replicated.StaticBlockView` ones, so a
    standalone topology and a replica of a stacked run behave alike draw
    for draw; this class adds the mapping constructor (for hand-written
    graphs — every builder goes through :meth:`from_rows`) and the
    read-only analysis helpers.

    Parameters
    ----------
    adjacency:
        Mapping from node identifier to a collection of neighbour
        identifiers.  The constructor symmetrises the relation.
        Identifiers are non-negative and below ``2**31 - 1``; rows are
        indexed by identifier, so keep them reasonably dense.
    name:
        Human readable name used in reports (e.g. ``"random(k=20)"``).
    """

    def __init__(
        self, adjacency: Mapping[int, Collection[int]], name: str = "static"
    ) -> None:
        count = len(adjacency)
        try:
            ids = np.fromiter(adjacency.keys(), dtype=np.int64, count=count)
            lengths = np.fromiter(
                map(len, adjacency.values()), dtype=np.int64, count=count
            )
            targets = np.fromiter(
                chain.from_iterable(adjacency.values()),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
        except OverflowError as exc:
            raise TopologyError("node identifiers exceed the int32 block range") from exc
        if count and (ids.min() < 0 or ids.max() >= _ID_LIMIT):
            raise TopologyError(
                f"node identifiers must lie in [0, {_ID_LIMIT}), "
                f"got {ids.min()} .. {ids.max()}"
            )
        capacity = int(ids.max()) + 1 if count else 0
        sources = np.repeat(ids, lengths)
        bad = np.flatnonzero((sources == targets) | ~np.isin(targets, ids))
        if bad.size:
            node, neighbour = sources[bad[0]], targets[bad[0]]
            raise TopologyError(
                f"node {node} lists itself as a neighbour"
                if node == neighbour
                else f"node {node} references unknown neighbour {neighbour}"
            )
        neighbours, degrees = rows_from_edges(capacity, sources, targets)
        block = ReplicatedStaticBlock(neighbours, degrees, capacity, [ids.tolist()], name)
        super().__init__(block, 0)

    @classmethod
    def from_rows(
        cls, neighbours: np.ndarray, degrees: np.ndarray, name: str = "static"
    ) -> "StaticTopology":
        """Topology over prepared ragged rows; node ``u`` owns row ``u``.

        ``neighbours`` and ``degrees`` are what
        :func:`~repro.topology.replicated.rows_from_edges` returns for the
        dense identifier space ``0 .. len(degrees) - 1``.
        """
        size = degrees.size
        topology = cls.__new__(cls)
        block = ReplicatedStaticBlock(neighbours, degrees, size, [range(size)], name)
        StaticBlockView.__init__(topology, block, 0)
        return topology

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def degree(self, node_id: int) -> int:
        """Number of neighbours of ``node_id``."""
        return len(self.neighbors(node_id))

    def degree_sequence(self) -> List[int]:
        """Degrees of all nodes, in node-id order."""
        return self._block._degree_sequence(self._replica)

    def edges(self) -> List[tuple[int, int]]:
        """All undirected edges as ``(low, high)`` tuples, each once."""
        owners, neighbours = self._block._entries(self._replica)
        once = owners < neighbours
        return list(zip(owners[once].tolist(), neighbours[once].tolist()))

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self._block._entry_count(self._replica) // 2

    def has_edge(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` are neighbours."""
        return self.contains(a) and b in self.neighbors(a)

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected)."""
        return len(effective_components(self)) <= 1

    def connected_components(self) -> List[Set[int]]:
        """All connected components as sets of node identifiers, largest first."""
        return [set(members) for members in effective_components(self)]

    def to_networkx(self):
        """Return the graph as a :class:`networkx.Graph` (for analysis)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.node_ids())
        graph.add_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticTopology(name={self.name!r}, nodes={self.size()}, edges={self.edge_count()})"
