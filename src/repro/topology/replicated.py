"""The array store behind every static overlay: ragged block rows.

A static overlay is kept as ragged rows in one flat int32 buffer, never
as Python containers: node ``u`` of replica ``r`` owns block row
``r * stride + u``, whose neighbours sit ascending at
``neighbours[offsets[row] : offsets[row] + degrees[row]]``.  Peer
selection, crash removal and churn joins are array passes over those
rows.  :class:`~repro.topology.base.StaticTopology` is the one-replica
case; a replicated simulation holds its ``R`` independent repetitions
(each drawn from its own random stream) in one block, at row offsets
``r * stride``.

The ascending row order is the load-bearing part: a peer draw maps a
uniform variate ``u`` to the neighbour at index ``floor(u * degree)``, so
a serial overlay and a replica view that consume the same generator calls
make **bit-identical peer choices** — which is what lets the replicated
engine reproduce serial fast-path traces exactly.

Memory law: a block costs 4 bytes per stored neighbour (every undirected
edge is stored once per endpoint) plus 25 bytes per row (int64 offset,
degree and room, and an alive flag), where ``rows = R x (largest node id
+ 1)``.  There is no max-degree term: a scale-free graph's hubs cost
only their own rows, though sparse identifiers still pay for the gaps.
A churn join that outgrows a row moves the row to the end of the
buffer with twice its room and leaves the old segment unused (the
buffer is never compacted).  Building a k-out overlay of ``N`` nodes
holds, transiently, ``2 * N * k * 8`` bytes of int64 sort keys plus
``2 * N * k * 4`` bytes of int32 neighbour column plus the rows; the
``N * k * 4``-byte int32 draw matrix is freed before the sort, and
drawing it held at most one ``_SAMPLE_CHUNK``-row int64 chunk more.

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

#: Exclusive bound on node identifiers.  The block stores neighbours as
#: int32 (ids are bounded far below 2^31 at any reachable scale), halving
#: the memory traffic of the row edits and gathers; peer draws are
#: widened back to int64 at the API boundary.
_ID_LIMIT = np.iinfo(np.int32).max
#: Rows of the int64 uniform block :func:`sample_distinct_peers` draws per
#: generator call: its scratch is one chunk (15.7 MB at c = 30), and a
#: draw at N = 10^6 takes 16 calls.
_SAMPLE_CHUNK = 65_536


def draw_k_out_peers(size: int, degree: int, rng: RandomSource) -> np.ndarray:
    """Draw ``degree`` distinct random peers (excluding self) per node.

    The batched equivalent of ``degree``-out sampling: one uniform block
    plus redraw-until-distinct passes, the same technique the array-native
    NEWSCAST bootstrap uses.  Returns a ``(size, degree)`` int32 array of
    peer identifiers, each row ascending.

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
    back sorted ascending (per row) in ``(size, fill)`` int32 form.

    The uniform block is drawn ``_SAMPLE_CHUNK`` rows at a time, each
    int64 chunk cast straight into the int32 rows; chunked bounded draws
    equal one call value for value and leave the generator in the same
    state.  The call therefore holds at most its int32 output, one int64
    chunk and one bool mask (reused by every redraw pass and the shift).

    When ``fill`` is close to ``size - 1`` the redraws keep colliding;
    rows still holding a duplicate after 64 passes are completed exactly
    from a per-row permutation of the other identifiers.  That fallback
    draws only after the passes run out, so every draw the passes finish
    consumes the generator exactly as before.
    """
    if size > _ID_LIMIT:
        raise TopologyError(
            f"size {size} exceeds the int32 identifier range (at most {_ID_LIMIT} nodes)"
        )
    draws = np.empty((size, fill), dtype=np.int32)
    for start in range(0, size, _SAMPLE_CHUNK):
        stop = min(start + _SAMPLE_CHUNK, size)
        draws[start:stop] = generator.integers(
            0, size - 1, size=(stop - start, fill), dtype=np.int64
        )
    draws.sort(axis=1)
    duplicate = np.zeros((size, fill), dtype=bool)
    for _ in range(64):
        np.equal(draws[:, 1:], draws[:, :-1], out=duplicate[:, 1:])
        count = int(np.count_nonzero(duplicate))
        if count == 0:
            break
        draws[duplicate] = generator.integers(0, size - 1, size=count, dtype=np.int64)
        draws.sort(axis=1)
    else:
        np.equal(draws[:, 1:], draws[:, :-1], out=duplicate[:, 1:])
        stuck = np.flatnonzero(duplicate.any(axis=1))
        if stuck.size:
            others = np.broadcast_to(np.arange(size - 1, dtype=np.int64), (stuck.size, size - 1))
            draws[stuck] = np.sort(generator.permuted(others, axis=1)[:, :fill], axis=1)
    np.greater_equal(draws, np.arange(size, dtype=np.int32)[:, None], out=duplicate)
    draws += duplicate
    return draws


def rows_from_edges(
    size: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ragged ascending adjacency rows of the undirected graph on an edge list.

    ``sources`` and ``targets`` are int32 or int64 node identifiers in
    ``[0, size)`` that broadcast together (flat edge arrays, or a k-out draw's
    ``(size, 1)`` owner column against its ``(size, k)`` draw matrix); an
    edge may be listed in one direction, in both, or several times.  One
    in-place sort of the ``owner * size + neighbour`` keys of both
    directions symmetrises, deduplicates and row-sorts at once, and the
    sorted keys already are the rows laid end to end.  Returns
    ``(neighbours, degrees)``: the int32 neighbours of rows ``0 .. size-1``
    concatenated, each row ascending, and the int64 row lengths.

    The kernel drops its references to the edge arrays once the keys are
    formed, so a caller that passes them as temporaries has them freed
    before the sort.
    """
    keys = np.empty((2,) + np.broadcast(sources, targets).shape, dtype=np.int64)
    # dtype=int64: NumPy computes int32 * int in int32, which wraps once
    # owner * size passes 2^31.
    np.multiply(sources, size, out=keys[0], dtype=np.int64)
    np.add(keys[0], targets, out=keys[0])
    np.multiply(targets, size, out=keys[1], dtype=np.int64)
    np.add(keys[1], sources, out=keys[1])
    del sources, targets
    keys = keys.reshape(-1)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    # Row u spans the keys in [u * size, (u + 1) * size), and key % size
    # is the neighbour.
    starts = np.searchsorted(keys, np.arange(size + 1, dtype=np.int64) * size)
    degrees = np.diff(starts)
    degrees -= np.bincount(keys[~first] // size, minlength=size)
    neighbours = np.remainder(
        keys, size, out=np.empty(keys.size, dtype=np.int32), casting="unsafe"
    )
    # Freeing each temporary once consumed sets the peak.
    del keys
    return neighbours[first], degrees


def _ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 positions ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    shift = starts - np.cumsum(lengths) + lengths
    return np.repeat(shift, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _packed_offsets(degrees: np.ndarray, start: int) -> np.ndarray:
    """Offsets of rows laid end to end from ``start``; empty rows point at slot 0."""
    offsets = np.cumsum(degrees) - degrees + start
    offsets[degrees == 0] = 0
    return offsets


class ReplicatedStaticBlock:
    """``R`` static overlays stored as one ragged row store.

    Replica ``r``'s node ``u`` occupies block row ``r * stride + u``.
    The row's neighbours sit ascending in one flat int32 buffer, at
    ``neighbours[offsets[row] : offsets[row] + degrees[row]]``, so peer
    draws from the same generator stream pick the same neighbours
    whichever replica — or standalone ``StaticTopology`` — holds the row.
    Each row owns ``room[row] >= degrees[row]`` slots of the buffer; a
    row without room points at slot 0, so every offset indexes the buffer.

    Use :meth:`build_k_out` to construct the block for the paper's
    random overlay, or :meth:`from_topologies` / :meth:`from_builder` to
    adopt already-built static overlays (any static family).
    :meth:`view` returns a per-replica :class:`StaticBlockView`
    implementing the ``OverlayProvider`` surface the simulation engines
    drive.

    Parameters
    ----------
    neighbours, degrees:
        Rows ``0 .. replicas * stride - 1`` laid end to end (int32, any
        spare capacity after them) and their lengths.
    stride:
        Row capacity reserved per replica (largest node id + 1).
    orders:
        Per replica, the identifiers of its nodes in insertion order —
        the order ``node_ids()`` reports and churn attachment samples
        from.
    """

    def __init__(
        self,
        neighbours: np.ndarray,
        degrees: np.ndarray,
        stride: int,
        orders: Sequence[Sequence[int]],
        name: str = "static-block",
    ) -> None:
        self._neighbours = neighbours if neighbours.size else np.zeros(1, dtype=np.int32)
        self._degrees = degrees
        self._offsets = _packed_offsets(degrees, 0)
        self._room = degrees.copy()
        self._used = int(degrees.sum())
        # Block rows of the nodes removed since the last read: their
        # entries leave the neighbours' rows in one pass (_settle).
        self._pending: List[int] = []
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
        # A replica stores each of its size * degree draws at most twice
        # (once per endpoint), which sizes the one buffer up front.
        neighbours = np.empty(replicas * 2 * size * degree, dtype=np.int32)
        degrees = np.empty(replicas * size, dtype=np.int64)
        used = 0
        for replica, rng in enumerate(rngs):
            values, row_degrees = rows_from_edges(
                size, owners, draw_k_out_peers(size, degree, rng)
            )
            neighbours[used : used + values.size] = values
            degrees[replica * size : (replica + 1) * size] = row_degrees
            used += values.size
        return cls(
            neighbours,
            degrees,
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
        — not ``count`` of them.  The buffer is sized for ``count``
        copies of the first replica's rows, which is exact for the
        families with a fixed edge count, and grows by doubling past it.
        """
        require_positive(count, "count")
        instance = cls(
            np.zeros(1, dtype=np.int32), np.zeros(count, dtype=np.int64), 1, [()] * count
        )
        for replica in range(count):
            topology = build(replica)
            if replica == 0:
                instance.name = topology.name
                entries = topology._block._entry_count(topology._replica)
                instance._neighbours = np.empty(max(1, count * entries), dtype=np.int32)
            instance._adopt(replica, topology)
            del topology
        return instance

    def _adopt(self, replica: int, topology: "StaticBlockView") -> None:
        """Copy one built overlay's rows and bookkeeping into the empty ``replica``."""
        source, origin = topology._block, topology._replica
        source._settle()
        span = source._stride
        source_rows = slice(origin * span, (origin + 1) * span)
        degrees = source._degrees[source_rows].copy()
        values = source._neighbours[_ragged_positions(source._offsets[source_rows], degrees)]
        self._ensure_local_capacity(span - 1)
        rows = slice(replica * self._stride, replica * self._stride + span)
        start = self._claim(values.size)
        self._neighbours[start : start + values.size] = values
        self._offsets[rows] = _packed_offsets(degrees, start)
        self._degrees[rows] = degrees
        self._room[rows] = degrees
        self._alive[rows] = source._alive[source_rows]
        self._insertion_order[replica] = list(source._existing(origin))
        self._edge_sum[replica] = source._entry_count(origin)
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
        self._settle()
        row = replica * self._stride + node_id
        start = self._offsets[row]
        return tuple(self._neighbours[start : start + self._degrees[row]].tolist())

    def _entries(self, replica: int) -> tuple[np.ndarray, np.ndarray]:
        """Every stored neighbour entry of ``replica``: ``(local owner, neighbour)``.

        Owners ascending, each owner's neighbours ascending; int64 owners
        and the store's int32 neighbours.
        """
        self._settle()
        rows = slice(replica * self._stride, (replica + 1) * self._stride)
        degrees = self._degrees[rows]
        owners = np.repeat(np.arange(self._stride, dtype=np.int64), degrees)
        return owners, self._neighbours[_ragged_positions(self._offsets[rows], degrees)]

    def _degree_sequence(self, replica: int) -> List[int]:
        self._settle()
        rows = slice(replica * self._stride, (replica + 1) * self._stride)
        return self._degrees[rows][self._alive[rows]].tolist()

    def _entry_count(self, replica: int) -> int:
        """Stored neighbour entries of ``replica``: twice its edge count."""
        self._settle()
        return self._edge_sum[replica]

    def _average_degree(self, replica: int) -> float:
        if self._node_count[replica] == 0:
            return 0.0
        return self._entry_count(replica) / self._node_count[replica]

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
        self._settle()
        rows = replica * self._stride + node_ids
        row_degrees = self._degrees[rows]
        # Floor-multiply instead of per-element bounded integers: one
        # uniform block plus a multiply is several times faster than the
        # rejection-based integer path, and the bias is O(degree / 2^53).
        draws = (generator.random(node_ids.size) * row_degrees).astype(np.int64)
        # One flat gather, widened back to the int64 the engines work in.
        # An isolated node gathers its row's first slot, masked below.
        draws += self._offsets[rows]
        peers = self._neighbours[draws].astype(np.int64)
        peers[row_degrees == 0] = -1
        return peers

    def _remove_node(self, replica: int, node_id: int) -> None:
        """Take ``node_id`` out of the membership; its edges go at the next read."""
        if not self._contains(replica, node_id):
            return
        row = replica * self._stride + node_id
        self._alive[row] = False
        self._node_count[replica] -= 1
        self._pending.append(row)

    def _settle(self) -> None:
        """Delete every pending victim from its neighbours' rows, in one pass.

        A crash event removes many nodes between two reads, and one
        vectorised pass serves them all.  A binary search finds each
        victim in each of its live neighbours' rows, and each such row
        shifts the tail after its first hit left by its number of hits.
        Edges between two victims go with both victims' rows.
        """
        if not self._pending:
            return
        victims = np.asarray(self._pending, dtype=np.int64)
        self._pending = []
        stride = self._stride
        counts = self._degrees[victims]
        replica_of = victims // stride
        entries = _ragged_positions(self._offsets[victims], counts)
        rows = np.repeat(replica_of * stride, counts) + self._neighbours[entries]
        lost = np.repeat(victims - replica_of * stride, counts)
        self._degrees[victims] = 0
        live = self._alive[rows]
        # Degree sums lose both ends of every edge at a victim, but an
        # edge between two victims only once per end.
        dropped = 2 * np.bincount(replica_of, weights=counts, minlength=self._replicas)
        dropped -= np.bincount(rows[~live] // stride, minlength=self._replicas)
        for replica in np.flatnonzero(dropped).tolist():
            self._edge_sum[replica] -= int(dropped[replica])
        rows, lost = rows[live], lost[live]
        if rows.size == 0:
            return
        positions = self._find(rows, lost)
        # Rows own disjoint segments, so ordering the hits by position
        # groups them by row, each row's hits ascending.
        order = np.argsort(positions)
        positions, rows = positions[order], rows[order]
        head = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        touched, first = rows[starts], positions[starts]
        hits = np.diff(np.append(starts, rows.size))
        tails = self._offsets[touched] + self._degrees[touched] - first
        span = _ragged_positions(first, tails)
        keep = np.ones(span.size, dtype=bool)
        keep[positions + np.repeat(np.cumsum(tails) - tails - first, hits)] = False
        self._neighbours[_ragged_positions(first, tails - hits)] = self._neighbours[
            span[keep]
        ]
        self._degrees[touched] -= hits

    def _find(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Buffer position of ``values[i]`` in row ``rows[i]`` (present in it)."""
        low = self._offsets[rows]
        high = low + self._degrees[rows]
        for _ in range(int((high - low).max()).bit_length()):
            middle = (low + high) >> 1
            smaller = self._neighbours[middle] < values
            np.add(middle, 1, out=low, where=smaller)
            np.copyto(high, middle, where=~smaller)
        return low

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
        self._settle()
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
            self._reserve(row, count)
            start = int(self._offsets[row])
            self._neighbours[start : start + count] = peers
            self._degrees[row] = count
            for peer in peers:
                peer_row = base + peer
                degree = int(self._degrees[peer_row])
                self._reserve(peer_row, degree + 1)
                start = int(self._offsets[peer_row])
                segment = self._neighbours[start : start + degree + 1]
                position = int(np.searchsorted(segment[:degree], node_id))
                segment[position + 1 :] = segment[position:degree]
                segment[position] = node_id
                self._degrees[peer_row] = degree + 1
            self._edge_sum[replica] += 2 * count
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

    def _reserve(self, row: int, need: int) -> None:
        """Give ``row`` room for ``need`` entries.

        A row that outgrows its segment moves to the end of the buffer
        with twice its room (at least ``need``), so a row growing one
        entry at a time moves a logarithmic number of times.
        """
        if need <= self._room[row]:
            return
        room = max(need, 2 * int(self._room[row]))
        start = self._claim(room)
        old, count = int(self._offsets[row]), int(self._degrees[row])
        self._neighbours[start : start + count] = self._neighbours[old : old + count]
        self._offsets[row] = start
        self._room[row] = room

    def _claim(self, count: int) -> int:
        """Start of ``count`` fresh slots at the end of the buffer (grown by doubling)."""
        start = self._used
        if start + count > self._neighbours.size:
            grown = np.empty(max(2 * self._neighbours.size, start + count), dtype=np.int32)
            grown[:start] = self._neighbours[:start]
            self._neighbours = grown
        self._used = start + count
        return start

    def _ensure_local_capacity(self, node_id: int) -> None:
        """Widen every replica's row range to hold ``node_id``; new rows are empty."""
        if node_id < self._stride:
            return
        self._settle()
        new_stride = max(self._stride * 2, node_id + 1)
        relaid = []
        for old in (self._offsets, self._degrees, self._room, self._alive):
            new = np.zeros((self._replicas, new_stride), dtype=old.dtype)
            new[:, : self._stride] = old.reshape(self._replicas, self._stride)
            relaid.append(new.reshape(-1))
        self._offsets, self._degrees, self._room, self._alive = relaid
        self._stride = new_stride

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
