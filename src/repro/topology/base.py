"""Overlay abstractions shared by static topologies and NEWSCAST.

The aggregation protocol only needs one service from the overlay: *give me
a random neighbour to gossip with*.  The simulation engines additionally
inform the overlay about node arrivals and departures and give it a chance
to run its own maintenance once per cycle (which is how the NEWSCAST
membership protocol is plugged in).

Two families of overlays are provided:

* :class:`StaticTopology` — a fixed graph described by adjacency sets.
  The concrete generators in this package (random regular, complete,
  ring lattice, Watts–Strogatz, Barabási–Albert) all build instances of
  this class.
* :class:`repro.newscast.VectorizedNewscastOverlay` — a dynamic overlay
  maintained by the NEWSCAST epidemic membership protocol (and its
  dict-based parity oracle :class:`repro.newscast.NewscastOverlay`).
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..common.errors import TopologyError
from ..common.rng import RandomSource

__all__ = ["OverlayProvider", "StaticTopology"]


class OverlayProvider(abc.ABC):
    """Interface between the simulation engine and an overlay network."""

    @abc.abstractmethod
    def node_ids(self) -> List[int]:
        """Return the identifiers of all nodes currently in the overlay."""

    @abc.abstractmethod
    def neighbors(self, node_id: int) -> Sequence[int]:
        """Return the neighbour identifiers known by ``node_id``."""

    @abc.abstractmethod
    def select_peer(self, node_id: int, rng: RandomSource) -> Optional[int]:
        """Return a uniformly random neighbour of ``node_id`` (or ``None``).

        ``None`` means the node currently has no usable neighbour and the
        exchange for this cycle is skipped, exactly as a timed-out exchange
        would be in the paper's protocol.
        """

    @abc.abstractmethod
    def on_node_removed(self, node_id: int) -> None:
        """Notify the overlay that a node has crashed or left."""

    @abc.abstractmethod
    def on_node_added(self, node_id: int, rng: RandomSource) -> None:
        """Notify the overlay that a new node joined (bootstrap it)."""

    def after_cycle(self, rng: RandomSource) -> None:
        """Hook run once per cycle for overlay maintenance (default: no-op)."""

    # Convenience -------------------------------------------------------
    def size(self) -> int:
        """Number of nodes currently in the overlay."""
        return len(self.node_ids())

    def contains(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently part of the overlay.

        The fallback scans ``node_ids()`` directly instead of building a
        throwaway set (which made every membership check O(N) *plus* an
        O(N) allocation).  Overlays with an index override this with a
        real O(1) lookup.
        """
        return node_id in self.node_ids()


class StaticTopology(OverlayProvider):
    """A fixed overlay graph stored as adjacency sets.

    The graph is undirected: an edge ``(a, b)`` makes ``b`` a neighbour of
    ``a`` and vice versa.  Node removal deletes the node together with its
    incident edges; this models the "oracle" overlay used by the paper for
    static-topology experiments, where a crashed node simply disappears
    from every neighbour list.

    Parameters
    ----------
    adjacency:
        Mapping from node identifier to an iterable of neighbour
        identifiers.  The constructor symmetrises the relation.
    name:
        Human readable name used in reports (e.g. ``"random(k=20)"``).
    """

    def __init__(self, adjacency: Dict[int, Iterable[int]], name: str = "static") -> None:
        self._name = name
        self._adjacency: Dict[int, Set[int]] = {
            int(node): set(int(n) for n in neighbours) for node, neighbours in adjacency.items()
        }
        # Symmetrise and validate.
        for node, neighbours in list(self._adjacency.items()):
            if node in neighbours:
                raise TopologyError(f"node {node} lists itself as a neighbour")
            for neighbour in neighbours:
                if neighbour not in self._adjacency:
                    raise TopologyError(
                        f"node {node} references unknown neighbour {neighbour}"
                    )
                self._adjacency[neighbour].add(node)
        # Flattened adjacency (CSR) used by batched peer selection; rebuilt
        # lazily after any membership change.
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, bool]] = None

    # ------------------------------------------------------------------
    # OverlayProvider interface
    # ------------------------------------------------------------------
    def node_ids(self) -> List[int]:
        return list(self._adjacency.keys())

    def neighbors(self, node_id: int) -> Sequence[int]:
        try:
            return tuple(self._adjacency[node_id])
        except KeyError as exc:
            raise TopologyError(f"unknown node {node_id}") from exc

    def select_peer(self, node_id: int, rng: RandomSource) -> Optional[int]:
        neighbours = self._adjacency.get(node_id)
        if not neighbours:
            return None
        return rng.choice(tuple(neighbours))

    def select_peers_batch(
        self, node_ids: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Draw one uniform neighbour for every node in ``node_ids`` at once.

        Returns an int64 array aligned with ``node_ids``; ``-1`` marks nodes
        that currently have no neighbour (the batched equivalent of
        :meth:`select_peer` returning ``None``).  One vectorised draw per
        call replaces ``len(node_ids)`` scalar generator round-trips.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        offsets_by_id, degrees_by_id, flat, any_isolated = self._csr_arrays()
        row_degrees = degrees_by_id[node_ids]
        # Floor-multiply instead of per-element bounded integers: one
        # uniform block plus a multiply is several times faster than the
        # rejection-based integer path, and the bias is O(degree / 2^53).
        draws = (generator.random(node_ids.size) * row_degrees).astype(np.int64)
        if not flat.size:
            return np.full(node_ids.size, -1, dtype=np.int64)
        indices = offsets_by_id[node_ids] + draws
        if any_isolated:
            # An isolated node contributes offset + 0, which for the last
            # CSR row points one past the end of ``flat`` — pin those
            # lookups to 0 before gathering; the mask below discards them.
            indices[row_degrees == 0] = 0
        peers = flat[indices]
        if any_isolated:
            peers[row_degrees == 0] = -1
        return peers

    def _csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        if self._csr is None:
            count = len(self._adjacency)
            ids = np.fromiter(self._adjacency.keys(), dtype=np.int64, count=count)
            degrees = np.fromiter(
                (len(neighbours) for neighbours in self._adjacency.values()),
                dtype=np.int64,
                count=count,
            )
            total = int(degrees.sum())
            # Rows are laid out in ascending neighbour-id order.  The order
            # is part of the peer-selection contract: a batched draw maps a
            # uniform variate to ``flat[offset + floor(u * degree)]``, so
            # any array-native re-implementation of this overlay (the
            # replicated block topology) must index the *same* neighbour
            # for the same variate — a canonical sorted layout makes that
            # reproducible, where raw set-iteration order would not be.
            flat = np.fromiter(
                (
                    neighbour
                    for neighbours in self._adjacency.values()
                    for neighbour in sorted(neighbours)
                ),
                dtype=np.int64,
                count=total,
            )
            offsets = np.zeros(count, dtype=np.int64)
            if count:
                np.cumsum(degrees[:-1], out=offsets[1:])
            # Re-key by node id so batched lookups skip the row indirection.
            capacity = int(ids.max()) + 1 if count else 0
            offsets_by_id = np.zeros(capacity, dtype=np.int64)
            degrees_by_id = np.zeros(capacity, dtype=np.int64)
            offsets_by_id[ids] = offsets
            degrees_by_id[ids] = degrees
            any_isolated = bool(count) and int(degrees.min()) == 0
            self._csr = (offsets_by_id, degrees_by_id, flat, any_isolated)
        return self._csr

    def on_node_removed(self, node_id: int) -> None:
        neighbours = self._adjacency.pop(node_id, None)
        if neighbours is None:
            return
        self._csr = None
        for neighbour in neighbours:
            self._adjacency[neighbour].discard(node_id)

    def on_node_added(self, node_id: int, rng: RandomSource) -> None:
        """Attach a new node to ``degree``-many random existing nodes.

        The attachment degree mirrors the average degree of the current
        graph (at least one edge) so the graph stays roughly regular as
        churn replaces nodes.
        """
        if node_id in self._adjacency:
            raise TopologyError(f"node {node_id} already exists")
        self._csr = None
        existing = list(self._adjacency.keys())
        self._adjacency[node_id] = set()
        if not existing:
            return
        average_degree = max(1, round(self.average_degree()))
        count = min(average_degree, len(existing))
        for peer in rng.sample(existing, count):
            self._adjacency[node_id].add(peer)
            self._adjacency[peer].add(node_id)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human readable topology name."""
        return self._name

    def size(self) -> int:
        return len(self._adjacency)

    def contains(self, node_id: int) -> bool:
        return node_id in self._adjacency

    def degree(self, node_id: int) -> int:
        """Number of neighbours of ``node_id``."""
        return len(self._adjacency[node_id])

    def average_degree(self) -> float:
        """Mean degree over all nodes (0 for an empty graph)."""
        if not self._adjacency:
            return 0.0
        return sum(len(n) for n in self._adjacency.values()) / len(self._adjacency)

    def degree_sequence(self) -> List[int]:
        """Degrees of all nodes, in node-id order."""
        return [len(self._adjacency[node]) for node in sorted(self._adjacency)]

    def edges(self) -> List[tuple[int, int]]:
        """All undirected edges as ``(low, high)`` tuples, each once."""
        result = []
        for node, neighbours in self._adjacency.items():
            for neighbour in neighbours:
                if node < neighbour:
                    result.append((node, neighbour))
        return result

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(n) for n in self._adjacency.values()) // 2

    def has_edge(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` are neighbours."""
        return b in self._adjacency.get(a, set())

    def adjacency_copy(self) -> Dict[int, Set[int]]:
        """Deep copy of the adjacency mapping (for analysis code)."""
        return {node: set(neighbours) for node, neighbours in self._adjacency.items()}

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected)."""
        if not self._adjacency:
            return True
        start = next(iter(self._adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour in self._adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self._adjacency)

    def connected_components(self) -> List[Set[int]]:
        """All connected components as sets of node identifiers."""
        remaining = set(self._adjacency)
        components: List[Set[int]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbour in self._adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            components.append(seen)
            remaining -= seen
        return components

    def to_networkx(self):
        """Return the graph as a :class:`networkx.Graph` (for analysis)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._adjacency.keys())
        graph.add_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticTopology(name={self._name!r}, nodes={self.size()}, edges={self.edge_count()})"
