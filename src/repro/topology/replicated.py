"""The array store behind every static overlay: padded block rows.

A static overlay is kept as rows of one padded int32 matrix, never as
Python containers: node ``u`` of replica ``r`` owns block row
``r * stride + u``, the row lists ``u``'s neighbours ascending, and a
sentinel pads it to the block width.  Peer selection, crash removal and
churn joins are array passes over those rows.
:class:`~repro.topology.base.StaticTopology` is the one-replica case; a
replicated simulation holds its ``R`` independent repetitions (each drawn
from its own random stream) in one block, at offsets ``r * stride``.

The ascending row order is the load-bearing part: a peer draw maps a
uniform variate ``u`` to the neighbour at index ``floor(u * degree)``, so
a serial overlay and a replica view that consume the same generator calls
make **bit-identical peer choices** — which is what lets the replicated
engine reproduce serial fast-path traces exactly.

Memory law: a block costs ``rows x max_degree x 4`` bytes, where
``rows = R x (largest node id + 1)``.  Rows are as wide as the highest
degree in the block, so a scale-free graph pays for its hubs on every
row and sparse identifiers pay for the gaps.  Building a k-out overlay
of ``N`` nodes holds, transiently, ``2 * N * k * 8`` bytes of int64 sort
keys plus ``2 * N * k * 4`` bytes of int32 neighbour column plus the
rows, while the caller holds the ``N * k * 8``-byte draw matrix.

:func:`rows_from_edges` is the one edge-list -> rows kernel: every static
builder (k-out, ring lattice, Watts–Strogatz, Barabási–Albert) hands it
flat edge arrays, and none builds a Python container per node or edge.
:func:`sample_distinct_peers` is the one distinct-peer sampler, behind
both the NEWSCAST bootstraps and :func:`draw_k_out_peers`, the sampler
of the paper's "random" overlay: the serial
:func:`~repro.topology.random_regular.random_k_out_topology` builder and
:meth:`ReplicatedStaticBlock.build_k_out` feed the same draws to the same
kernel, so the serial and replicated paths see the very same graphs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ..common.errors import TopologyError
from ..common.rng import RandomSource
from ..common.validation import require, require_positive
from .provider import OverlayProvider

__all__ = [
    "draw_k_out_peers",
    "sample_distinct_peers",
    "rows_from_edges",
    "ReplicatedStaticBlock",
    "StaticBlockView",
]

#: Padding value for empty adjacency slots.  Larger than any node id, so
#: rows stay ascending-sorted with the padding at the end and one
#: ``np.sort`` per row re-establishes the invariant after edits.  The
#: block stores neighbours as int32 (ids are bounded far below 2^31 at
#: any reachable scale), halving the memory traffic of the row sorts and
#: gathers; peer draws are widened back to int64 at the API boundary.
_SENTINEL = np.iinfo(np.int32).max


def draw_k_out_peers(size: int, degree: int, rng: RandomSource) -> np.ndarray:
    """Draw ``degree`` distinct random peers (excluding self) per node.

    The batched equivalent of ``degree``-out sampling: one uniform block
    plus redraw-until-distinct passes, the same technique the array-native
    NEWSCAST bootstrap uses.  Returns a ``(size, degree)`` int64 array of
    peer identifiers.

    Parameters
    ----------
    size:
        Number of nodes (identifiers ``0 .. size-1``).
    degree:
        Out-links sampled per node; must be smaller than ``size``.
    rng:
        Randomness source (consumed through its generator in batch form).
    """
    require_positive(size, "size")
    require_positive(degree, "degree")
    require(degree < size, f"degree ({degree}) must be smaller than size ({size})")
    return sample_distinct_peers(size, degree, rng.generator)


def sample_distinct_peers(
    size: int, fill: int, generator: np.random.Generator
) -> np.ndarray:
    """``fill`` distinct uniform peers (self excluded) per node, batched.

    The shared redraw-until-distinct core behind the k-out overlay
    sampler and both NEWSCAST bootstraps: one uniform block
    over the ``size - 1`` other identifiers, duplicate slots redrawn
    until every row is distinct, then the skip-self shift.  Rows come
    back sorted ascending (per row) in ``(size, fill)`` int64 form.

    When ``fill`` is close to ``size - 1`` the redraws keep colliding;
    rows still holding a duplicate after 64 passes are completed exactly
    from a per-row permutation of the other identifiers.  That fallback
    draws only after the passes run out, so every draw the passes finish
    consumes the generator exactly as before.
    """
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


def rows_from_edges(
    size: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Padded ascending adjacency rows of the undirected graph on an edge list.

    ``sources`` and ``targets`` are int64 node identifiers in ``[0, size)``
    that broadcast together (flat edge arrays, or a k-out draw's
    ``(size, 1)`` owner column against its ``(size, k)`` draw matrix); an
    edge may be listed in one direction, in both, or several times.  One
    in-place sort of the ``owner * size + neighbour`` keys of both
    directions symmetrises, deduplicates and row-sorts at once.  Returns
    ``(adjacency, degrees)``: a ``(size, max_degree)`` int32 matrix whose
    row ``u`` lists ``u``'s neighbours ascending, sentinel-padded, and the
    int64 row lengths.
    """
    keys = np.empty((2,) + np.broadcast(sources, targets).shape, dtype=np.int64)
    np.multiply(sources, size, out=keys[0])
    np.add(keys[0], targets, out=keys[0])
    np.multiply(targets, size, out=keys[1])
    np.add(keys[1], sources, out=keys[1])
    keys = keys.reshape(-1)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    # The sorted keys are the rows laid end to end: row u spans the keys
    # in [u * size, (u + 1) * size), and key % size is the neighbour.
    starts = np.searchsorted(keys, np.arange(size + 1, dtype=np.int64) * size)
    degrees = np.diff(starts)
    degrees -= np.bincount(keys[~first] // size, minlength=size)
    width = max(1, int(degrees.max())) if size else 1
    neighbours = np.remainder(
        keys, size, out=np.empty(keys.size, dtype=np.int32), casting="unsafe"
    )
    # Freeing each temporary once consumed, before the rows, sets the peak.
    del keys
    neighbours = neighbours[first]
    del first
    adjacency = np.full((size, width), _SENTINEL, dtype=np.int32)
    adjacency[np.arange(width) < degrees[:, None]] = neighbours
    return adjacency, degrees


class ReplicatedStaticBlock:
    """``R`` static overlays stored as one padded block adjacency matrix.

    Replica ``r``'s node ``u`` occupies block row ``r * stride + u``.
    Each row keeps its neighbours ascending with sentinel padding, so
    peer draws from the same generator stream pick the same neighbours
    whichever replica — or standalone ``StaticTopology`` — holds the row.

    Use :meth:`build_k_out` to construct the block for the paper's
    random overlay, or :meth:`from_topologies` / :meth:`from_builder` to
    adopt already-built static overlays (any static family).
    :meth:`view` returns a per-replica :class:`StaticBlockView`
    implementing the ``OverlayProvider`` surface the simulation engines
    drive.

    Parameters
    ----------
    adjacency, degrees:
        The ``(replicas * stride, width)`` padded rows and their lengths.
    stride:
        Row capacity reserved per replica (largest node id + 1).
    orders:
        Per replica, the identifiers of its nodes in insertion order —
        the order ``node_ids()`` reports and churn attachment samples
        from.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        degrees: np.ndarray,
        stride: int,
        orders: Sequence[Sequence[int]],
        name: str = "static-block",
    ) -> None:
        self._adj = adjacency
        self._degrees = degrees
        self._replicas = len(orders)
        self._stride = int(stride)
        self.name = name
        # Per-replica membership bookkeeping: alive flags, node ids in
        # insertion order (removed ids linger until _existing() compacts
        # the list), degree sums for average_degree().
        self._alive = np.zeros(self._replicas * self._stride, dtype=bool)
        self._insertion_order: List[List[int]] = [list(order) for order in orders]
        self._edge_sum: List[int] = []
        self._node_count: List[int] = []
        for replica, order in enumerate(self._insertion_order):
            base = replica * self._stride
            self._alive[base + np.asarray(order, dtype=np.int64)] = True
            self._edge_sum.append(int(degrees[base : base + self._stride].sum()))
            self._node_count.append(len(order))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build_k_out(
        cls,
        size: int,
        degree: int,
        rngs: Sequence[RandomSource],
        name: Optional[str] = None,
    ) -> "ReplicatedStaticBlock":
        """Build ``len(rngs)`` independent k-out overlays in one block.

        Replica ``r`` draws its graph from ``rngs[r]`` exactly as the
        serial :func:`~repro.topology.random_regular.random_k_out_topology`
        does, so the block holds the very same graphs a serial sweep
        would build.
        """
        replicas = len(rngs)
        require_positive(replicas, "replicas")
        owners = np.arange(size, dtype=np.int64)[:, None]
        pieces = [
            rows_from_edges(size, owners, draw_k_out_peers(size, degree, rng))
            for rng in rngs
        ]
        width = max(adjacency.shape[1] for adjacency, _ in pieces)
        block = np.full((replicas * size, width), _SENTINEL, dtype=np.int32)
        block_degrees = np.zeros(replicas * size, dtype=np.int64)
        for replica, (adjacency, degrees) in enumerate(pieces):
            base = replica * size
            block[base : base + size, : adjacency.shape[1]] = adjacency
            block_degrees[base : base + size] = degrees
        return cls(
            block,
            block_degrees,
            size,
            [range(size)] * replicas,
            name=name or f"random(k={degree})",
        )

    @classmethod
    def from_topologies(
        cls, topologies: "Sequence[StaticBlockView]"
    ) -> "ReplicatedStaticBlock":
        """Adopt already-built static overlays into one block.

        Preserves each topology's node identifiers, neighbour rows and
        insertion order, so a replica view behaves exactly like the
        original instance (including churn attachment draws).
        """
        require_positive(len(topologies), "topologies")
        return cls.from_builder(len(topologies), lambda replica: topologies[replica])

    @classmethod
    def from_builder(
        cls, count: int, build: "Callable[[int], StaticBlockView]"
    ) -> "ReplicatedStaticBlock":
        """Build ``count`` overlays one at a time, adopting each in turn.

        ``build(r)`` constructs replica ``r``'s ``StaticTopology``; its
        rows are copied into the block and the instance is released
        before the next replica is built, so peak memory holds the block
        plus **one** standalone overlay (and its builder's edge arrays)
        — not ``count`` of them.
        """
        require_positive(count, "count")
        instance = cls(
            np.full((count, 1), _SENTINEL, dtype=np.int32),
            np.zeros(count, dtype=np.int64),
            1,
            [()] * count,
        )
        for replica in range(count):
            topology = build(replica)
            instance._adopt(replica, topology)
            if replica == 0:
                instance.name = topology.name
            del topology
        return instance

    def _adopt(self, replica: int, topology: "StaticBlockView") -> None:
        """Copy one built overlay's rows and bookkeeping into the block."""
        source, origin = topology._block, topology._replica
        span, width = source._stride, source._adj.shape[1]
        self._ensure_local_capacity(span - 1)
        self._ensure_width(width)
        rows = slice(replica * self._stride, replica * self._stride + span)
        source_rows = slice(origin * span, (origin + 1) * span)
        self._adj[rows, :width] = source._adj[source_rows]
        self._degrees[rows] = source._degrees[source_rows]
        self._alive[rows] = source._alive[source_rows]
        self._insertion_order[replica] = list(source._existing(origin))
        self._edge_sum[replica] = source._edge_sum[origin]
        self._node_count[replica] = source._node_count[origin]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> int:
        """Number of replicated overlays held by this block."""
        return self._replicas

    @property
    def stride(self) -> int:
        """Row capacity reserved per replica."""
        return self._stride

    def view(self, replica: int) -> "StaticBlockView":
        """The ``OverlayProvider`` facade of one replica."""
        if not 0 <= replica < self._replicas:
            raise TopologyError(f"replica {replica} out of range")
        return StaticBlockView(self, replica)

    # ------------------------------------------------------------------
    # Per-replica operations (called through the views)
    # ------------------------------------------------------------------
    def _contains(self, replica: int, node_id: int) -> bool:
        if not 0 <= node_id < self._stride:
            return False
        return bool(self._alive[replica * self._stride + node_id])

    def _size(self, replica: int) -> int:
        return self._node_count[replica]

    def _neighbors(self, replica: int, node_id: int) -> tuple:
        if not self._contains(replica, node_id):
            raise TopologyError(f"unknown node {node_id}")
        row = replica * self._stride + node_id
        return tuple(self._adj[row, : self._degrees[row]].tolist())

    def _average_degree(self, replica: int) -> float:
        if self._node_count[replica] == 0:
            return 0.0
        return self._edge_sum[replica] / self._node_count[replica]

    def _select_peers_batch(
        self, replica: int, node_ids: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        if node_ids.min() < 0 or node_ids.max() >= self._stride:
            # Unknown ids answer -1 (and consume no randomness) instead of
            # wrapping onto another node's — or another replica's — row.
            known = (node_ids >= 0) & (node_ids < self._stride)
            peers = np.full(node_ids.size, -1, dtype=np.int64)
            peers[known] = self._select_peers_batch(replica, node_ids[known], generator)
            return peers
        rows = replica * self._stride + node_ids
        row_degrees = self._degrees[rows]
        # Floor-multiply instead of per-element bounded integers: one
        # uniform block plus a multiply is several times faster than the
        # rejection-based integer path, and the bias is O(degree / 2^53).
        draws = (generator.random(node_ids.size) * row_degrees).astype(np.int64)
        # One flat gather instead of 2-D fancy indexing (severalfold
        # cheaper), widened back to the int64 the engines work in.  An
        # isolated node gathers its first padding slot, masked below.
        draws += rows * self._adj.shape[1]
        peers = self._adj.ravel()[draws].astype(np.int64)
        peers[row_degrees == 0] = -1
        return peers

    def _remove_node(self, replica: int, node_id: int) -> None:
        if not self._contains(replica, node_id):
            return
        base = replica * self._stride
        row = base + node_id
        count = int(self._degrees[row])
        neighbours = self._adj[row, :count].copy()
        self._adj[row] = _SENTINEL
        self._degrees[row] = 0
        self._alive[row] = False
        self._node_count[replica] -= 1
        self._edge_sum[replica] -= 2 * count
        if count:
            # Delete node_id from every neighbour's sorted row: mark the
            # entry and let one batched sort push the hole into padding.
            neighbour_rows = base + neighbours
            sub = self._adj[neighbour_rows]
            sub[sub == node_id] = _SENTINEL
            sub.sort(axis=1)
            self._adj[neighbour_rows] = sub
            self._degrees[neighbour_rows] -= 1

    def _add_node(self, replica: int, node_id: int, rng: RandomSource) -> None:
        """Attach a new node to ``degree``-many random existing nodes.

        The attachment degree mirrors the average degree of the current
        graph (at least one edge) so the graph stays roughly regular as
        churn replaces nodes.
        """
        if node_id < 0:
            raise TopologyError(f"node identifiers must be non-negative, got {node_id}")
        if self._contains(replica, node_id):
            raise TopologyError(f"node {node_id} already exists")
        self._ensure_local_capacity(node_id)
        base = replica * self._stride
        row = base + node_id
        existing = self._existing(replica)
        self._alive[row] = True
        self._node_count[replica] += 1
        if existing:
            # Average degree over the graph *including* the fresh empty row.
            average = self._edge_sum[replica] / self._node_count[replica]
            count = min(max(1, round(average)), len(existing))
            peers = sorted(int(peer) for peer in rng.sample(existing, count))
            self._ensure_width(len(peers))
            self._adj[row, : len(peers)] = peers
            self._degrees[row] = len(peers)
            for peer in peers:
                peer_row = base + peer
                degree = int(self._degrees[peer_row])
                self._ensure_width(degree + 1)
                position = int(np.searchsorted(self._adj[peer_row, :degree], node_id))
                self._adj[peer_row, position + 1 : degree + 1] = self._adj[
                    peer_row, position:degree
                ]
                self._adj[peer_row, position] = node_id
                self._degrees[peer_row] = degree + 1
            self._edge_sum[replica] += 2 * len(peers)
        existing.append(int(node_id))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _existing(self, replica: int) -> List[int]:
        """Alive node ids in insertion order (the live list, not a copy)."""
        # A list longer than the node count still names removed nodes.
        if len(self._insertion_order[replica]) != self._node_count[replica]:
            order = np.asarray(self._insertion_order[replica], dtype=np.int64)
            alive = self._alive[replica * self._stride + order]
            self._insertion_order[replica] = order[alive].tolist()
        return self._insertion_order[replica]

    def _ensure_local_capacity(self, node_id: int) -> None:
        if node_id < self._stride:
            return
        new_stride = max(self._stride * 2, node_id + 1)
        adj = np.full(
            (self._replicas * new_stride, self._adj.shape[1]), _SENTINEL, dtype=np.int32
        )
        degrees = np.zeros(self._replicas * new_stride, dtype=np.int64)
        alive = np.zeros(self._replicas * new_stride, dtype=bool)
        for replica in range(self._replicas):
            old_base = replica * self._stride
            new_base = replica * new_stride
            adj[new_base : new_base + self._stride] = self._adj[
                old_base : old_base + self._stride
            ]
            degrees[new_base : new_base + self._stride] = self._degrees[
                old_base : old_base + self._stride
            ]
            alive[new_base : new_base + self._stride] = self._alive[
                old_base : old_base + self._stride
            ]
        self._adj = adj
        self._degrees = degrees
        self._alive = alive
        self._stride = new_stride

    def _ensure_width(self, width: int) -> None:
        if width <= self._adj.shape[1]:
            return
        new_width = max(2 * self._adj.shape[1], width)
        grown = np.full((self._adj.shape[0], new_width), _SENTINEL, dtype=np.int32)
        grown[:, : self._adj.shape[1]] = self._adj
        self._adj = grown

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedStaticBlock(replicas={self._replicas}, "
            f"stride={self._stride}, name={self.name!r})"
        )


class StaticBlockView(OverlayProvider):
    """One replica of a :class:`ReplicatedStaticBlock` as an overlay.

    Implements the full ``OverlayProvider`` surface, so the simulation
    engines — and their failure models — drive a block replica exactly
    like a standalone ``StaticTopology``, which is this view of a block
    of its own.
    """

    def __init__(self, block: ReplicatedStaticBlock, replica: int) -> None:
        self._block = block
        self._replica = replica
        self.name = block.name

    @property
    def replica(self) -> int:
        """Index of this view's replica within the block."""
        return self._replica

    def node_ids(self) -> List[int]:
        """Identifiers of all current nodes, in insertion order."""
        return list(self._block._existing(self._replica))

    def neighbors(self, node_id: int) -> Sequence[int]:
        """The neighbours of ``node_id``, ascending."""
        return self._block._neighbors(self._replica, node_id)

    def select_peers_batch(
        self, node_ids: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Draw one uniform neighbour for every node in ``node_ids`` at once.

        Returns an int64 array aligned with ``node_ids``; ``-1`` marks nodes
        that currently have no neighbour or are unknown.  One vectorised
        draw per call: a uniform per node, mapped onto its ascending row.
        """
        return self._block._select_peers_batch(self._replica, node_ids, generator)

    def on_node_removed(self, node_id: int) -> None:
        self._block._remove_node(self._replica, node_id)

    def on_node_added(self, node_id: int, rng: RandomSource) -> None:
        self._block._add_node(self._replica, node_id, rng)

    def size(self) -> int:
        return self._block._size(self._replica)

    def contains(self, node_id: int) -> bool:
        return self._block._contains(self._replica, node_id)

    def average_degree(self) -> float:
        """Mean degree over this replica's nodes (0 for an empty graph)."""
        return self._block._average_degree(self._replica)

    def adjacency_copy(self) -> Dict[int, Set[int]]:
        """The adjacency as a fresh dict of sets (for analysis code)."""
        return {node: set(self.neighbors(node)) for node in self.node_ids()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticBlockView(replica={self._replica}, block={self._block!r})"
