"""The array store behind every static overlay: ragged block rows.

A static overlay is kept as ragged rows in one flat int32 buffer, never
as Python containers: node ``u`` of replica ``r`` owns block row
``r * stride + u``, whose neighbours sit ascending at
``neighbours[offsets[row] : offsets[row] + degrees[row]]``.  Peer
selection and crash removal are array passes over those rows.
:class:`~repro.topology.base.StaticTopology` is the one-replica case; a
replicated simulation holds its ``R`` independent repetitions (each
drawn from its own random stream) in one block, at row offsets
``r * stride``.

The ascending row order is the load-bearing part: a peer draw maps a
uniform variate ``u`` to the neighbour at index ``floor(u * degree)``, so
a serial overlay and a replica view that consume the same generator calls
make **bit-identical peer choices** — which is what lets the replicated
engine reproduce serial fast-path traces exactly.

Membership is fixed at build time: nodes ``0 .. stride - 1`` of every
replica, which may crash but never join (only NEWSCAST takes joins).  So
a replica's nodes are its alive rows, in ascending id order, and need no
list of their own.

Memory law: a block costs 4 bytes per stored neighbour (every undirected
edge is stored once per endpoint) plus 17 bytes per row (int64 offset and
degree, and an alive flag), where ``rows = R x nodes``, and no Python
object per node.  There is no max-degree term: a scale-free graph's hubs
cost only their own rows.  Crash removal
(:meth:`ReplicatedStaticBlock._settle`) works through the victims in
groups of at most ``_SETTLE_ENTRIES`` stored entries and shifts the
touched rows in spans of as many, so its scratch is
``O(_SETTLE_ENTRIES + largest degree)`` whatever the number of victims.
Building a k-out overlay of ``N`` nodes holds its rows (the
``2 * N * k`` int32 slots its keys are laid out in, which the rows then
fill), its ``N * k * 4``-byte int32 draw matrix until the keys are laid
out, and one budget of scratch whatever ``N``: the sampler's int64 chunk
of ``_BAND_KEYS`` draws (8 MiB), or the kernel's int64 keys of half as
many.  The kernel works in row bands whose band-relative keys fit int32,
each sorted and compacted in its own region of the rows' slots; a graph
below 46,341 nodes whose keys fit the budget is one band, its keys
written straight into those slots.

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

from typing import Callable, Iterator, List, Optional, Sequence

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
#: Stored entries one crash-removal group touches: the victims of a group
#: hold at most this many neighbour entries (a victim above it forms a
#: group alone), and the touched rows' tails shift in spans of at most
#: this many entries (a longer tail shifts alone).  Deletions commute, so
#: any grouping leaves the same rows; this one holds the scratch to a few
#: MB (about 0.5 MB per int64 array).
_SETTLE_ENTRIES = 65_536
#: Scratch budget of an overlay build, in keys.  One
#: :func:`sample_distinct_peers` generator call draws this many int64
#: uniforms, and :func:`rows_from_edges` forms at most half as many int64
#: keys at a time, so a build holds about 8 MiB of scratch besides its
#: draws and rows, whatever the graph's size.  A graph whose keys (both
#: directions of every edge) fit, and whose ``size^2`` fits int32, is one
#: band: N = 2 * 10^4 at k = 20 still is.
_BAND_KEYS = 1 << 20
#: Keys of one cache-resident kernel step (256 KiB as int32), capped by the
#: budget: the size a band aims at and the span it is compacted in.
_CACHE_KEYS = 1 << 16


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

    The uniform block is drawn ``_BAND_KEYS`` entries at a time, each
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
    flat = draws.reshape(-1)
    for start in range(0, flat.size, _BAND_KEYS):
        stop = min(start + _BAND_KEYS, flat.size)
        flat[start:stop] = generator.integers(0, size - 1, size=stop - start, dtype=np.int64)
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
    edge may be listed in one direction, in both, or several times.  The
    ``owner * size + neighbour`` keys of both directions are laid out in row
    bands (:func:`_band_keys`), and sorting each band symmetrises,
    deduplicates and row-sorts it at once (:func:`_rows_from_bands`).
    Returns ``(neighbours, degrees)``: the int32 neighbours of rows
    ``0 .. size-1`` concatenated, each row ascending, and the int64 row
    lengths.

    The kernel drops its references to the edge arrays once the keys are
    laid out, so a caller that passes them as temporaries has them freed
    before the sort.
    """
    keys = np.empty(2 * np.broadcast(sources, targets).size, dtype=np.int32)
    degrees = np.empty(size, dtype=np.int64)
    bands = _band_keys(size, sources, targets, keys)
    del sources, targets
    # The rows end where the keys began; dropping the duplicates' slots
    # shrinks the buffer in place.
    keys.resize(_rows_from_bands(size, keys, bands, degrees), refcheck=False)
    return keys, degrees


def _band_keys(
    size: int, sources: np.ndarray, targets: np.ndarray, keys: np.ndarray
) -> List[tuple[int, int, int, int]]:
    """Lay both directions' keys of every edge into ``keys``, one region per row band.

    ``keys`` has one int32 slot per direction of each edge.  A band is a
    run of rows narrow enough that the band-relative key ``(row - band
    start) * size + neighbour`` fits int32.  A graph that fits the budget
    with ``size^2`` in int32 is one band, its keys written straight into
    ``keys``.  Otherwise the bands are ``width`` rows that aim at
    ``_CACHE_KEYS`` keys, and the edges go through twice, ``chunk`` keys at
    a time: the first pass counts each band's entries, which places the
    band regions; the second forms a chunk's int64 keys, one direction at a
    time, sorts them unless the chunk's rows already ascend (an owner-major
    edge list), and copies each band's run of them, band-relative, after
    what the band's region holds so far.  Returns the bands as ``(first
    row, row stop, region start, region stop)``.
    """
    if size == 0 or keys.size == 0:
        return [(0, size, 0, 0)] if size else []
    width = _ID_LIMIT // size
    if width >= size and keys.size <= _BAND_KEYS:
        half = keys.size // 2
        shape = np.broadcast(sources, targets).shape
        halves = ((sources, targets, keys[:half]), (targets, sources, keys[half:]))
        for rows, columns, part in halves:
            part = part.reshape(shape)
            np.multiply(rows, size, out=part, dtype=np.int32, casting="unsafe")
            np.add(part, columns, out=part, dtype=np.int32, casting="unsafe")
        return [(0, size, 0, keys.size)]
    piece = min(_CACHE_KEYS, _BAND_KEYS)
    width = max(1, min(width, piece * size // keys.size))
    firsts = np.append(np.arange(0, size, width, dtype=np.int64), size)
    counts = np.zeros(firsts.size - 1, dtype=np.int64)
    # About 4,096 keys per band keep the per-band copies long.
    chunk = max(1, min(max(piece, 4096 * counts.size), _BAND_KEYS // 2))
    for ids in (sources, targets):
        # Broadcasting repeats each identifier equally often.
        ids = np.asarray(ids).reshape(-1)
        copies = keys.size // 2 // ids.size
        for start in range(0, ids.size, chunk):
            _count_bands(ids[start : start + chunk], width, copies, counts)
    stops = np.cumsum(counts)
    fill = (stops - counts).tolist()
    regions = list(zip(firsts[:-1].tolist(), firsts[1:].tolist(), fill, stops.tolist()))
    span = width * size
    sources, targets = np.broadcast_arrays(sources, targets)
    if sources.ndim == 1:
        sources, targets = sources[:, None], targets[:, None]
    step = max(1, chunk // sources.shape[1])
    buffer = np.empty(min(step, sources.shape[0]) * sources.shape[1], dtype=np.int64)
    for rows, columns in ((sources, targets), (targets, sources)):
        for start in range(0, rows.shape[0], step):
            block = rows[start : start + step]
            part = buffer[: block.size]
            grid = part.reshape(block.shape)
            np.multiply(block, size, out=grid, dtype=np.int64)
            np.add(grid, columns[start : start + step], out=grid)
            if not _ascends(block):
                part.sort()
            # Rows that ascend leave the keys grouped by band, which is
            # all the runs need.
            for band, begin, end in _band_runs(part, span):
                at = fill[band]
                np.subtract(
                    part[begin:end], band * span, out=keys[at : at + end - begin],
                    casting="unsafe",
                )
                fill[band] = at + end - begin
    return regions


def _ascends(rows: np.ndarray) -> bool:
    """Whether the 2-D ``rows`` are non-decreasing in C order."""
    return bool((rows[:, 1:] >= rows[:, :-1]).all() and (rows[1:, 0] >= rows[:-1, -1]).all())


def _count_bands(ids: np.ndarray, width: int, copies: int, counts: np.ndarray) -> None:
    """Add ``copies`` per identifier in ``ids`` to the count of its band of ``width`` rows."""
    if _ascends(ids[:, None]):
        for band, begin, end in _band_runs(ids, width):
            counts[band] += copies * (end - begin)
    else:
        np.add.at(counts, ids // width, copies)


def _band_runs(values: np.ndarray, unit: int) -> Iterator[tuple[int, int, int]]:
    """The non-empty runs ``(band, start, stop)`` of ``values`` grouped by ``value // unit``.

    ``values`` hold their bands in ascending order.  A binary search per
    band boundary finds the runs when the values span fewer bands than
    they number, else one pass over the values' bands does (sparse
    identifiers, or a budget of a few keys).
    """
    low, high = int(values[0]) // unit, int(values[-1]) // unit
    if high - low < values.size:
        cuts = np.searchsorted(values, np.arange(low + 1, high + 1) * unit).tolist()
        bands: Sequence[int] = range(low, high + 1)
    else:
        of = values // unit
        cuts = (np.flatnonzero(of[1:] != of[:-1]) + 1).tolist()
        bands = of[[0] + cuts].tolist()
    for band, start, stop in zip(bands, [0] + cuts, cuts + [values.size]):
        if stop > start:
            yield band, start, stop


def _rows_from_bands(
    size: int, keys: np.ndarray, bands: List[tuple[int, int, int, int]], degrees: np.ndarray
) -> int:
    """Sort each band's keys in place and compact the bands into rows.

    Each band's region is sorted and its row lengths read off the sorted
    keys; then, ``_CACHE_KEYS`` keys at a time, repeats are dropped and
    keys become neighbours (``key % size``), written on from the start of
    ``keys``.  Fills ``degrees`` (one int64 per row) and returns the number
    of stored neighbours, the rows laid end to end at ``keys[:count]``.
    """
    piece = min(_CACHE_KEYS, _BAND_KEYS)
    used = 0
    for first, stop, low, high in bands:
        band = keys[low:high]
        band.sort()
        row_degrees = degrees[first:stop]
        starts = np.searchsorted(
            band, np.arange(0, (stop - first) * size + 1, size, dtype=np.int32)
        )
        np.subtract(starts[1:], starts[:-1], out=row_degrees)
        del starts
        last = -1
        for start in range(0, band.size, piece):
            part = band[start : start + piece]
            fresh = np.empty(part.size, dtype=bool)
            fresh[0] = part[0] != last
            np.not_equal(part[1:], part[:-1], out=fresh[1:])
            last = int(part[-1])
            rows = np.floor_divide(part, size)
            repeats = part.size - int(np.count_nonzero(fresh))
            if repeats:
                row_degrees -= np.bincount(rows[~fresh], minlength=row_degrees.size)
            np.multiply(rows, size, out=rows)
            np.subtract(part, rows, out=part)
            del rows
            if repeats:
                keys[used : used + part.size - repeats] = part[fresh]
            elif used != low + start:
                keys[used : used + part.size] = part
            used += part.size - repeats
    return used


def _ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 positions ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    shift = starts - np.cumsum(lengths) + lengths
    return np.repeat(shift, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _packed_offsets(degrees: np.ndarray, start: int) -> np.ndarray:
    """Offsets of rows laid end to end from ``start``; empty rows point at slot 0."""
    offsets = np.cumsum(degrees) - degrees + start
    offsets[degrees == 0] = 0
    return offsets


def _budget_slices(sizes: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of ``sizes``, each summing to at most ``_SETTLE_ENTRIES``.

    An item above the budget forms a slice alone.
    """
    ends = np.cumsum(sizes)
    start = 0
    while start < sizes.size:
        budget = (int(ends[start - 1]) if start else 0) + _SETTLE_ENTRIES
        stop = max(start + 1, int(np.searchsorted(ends, budget, side="right")))
        yield slice(start, stop)
        start = stop


class ReplicatedStaticBlock:
    """``R`` static overlays stored as one ragged row store.

    Replica ``r``'s node ``u`` occupies block row ``r * stride + u``.
    The row's neighbours sit ascending in one flat int32 buffer, at
    ``neighbours[offsets[row] : offsets[row] + degrees[row]]``, so peer
    draws from the same generator stream pick the same neighbours
    whichever replica — or standalone ``StaticTopology`` — holds the row.
    An empty row points at slot 0, so every offset indexes the buffer.

    Use :meth:`build_k_out` to construct the block for the paper's
    random overlay, or :meth:`from_builder` to adopt already-built static
    overlays (any static family).  :meth:`view` returns a per-replica
    :class:`StaticBlockView` implementing the ``OverlayProvider`` surface
    the simulation engines drive.

    Parameters
    ----------
    neighbours, degrees:
        Rows ``0 .. replicas * stride - 1`` laid end to end (int32, any
        spare capacity after them) and their lengths.
    stride:
        Rows per replica: its nodes are ``0 .. stride - 1``, all alive.
    replicas:
        Number of overlays the rows hold.
    """

    def __init__(
        self,
        neighbours: np.ndarray,
        degrees: np.ndarray,
        stride: int,
        replicas: int,
        name: str = "static-block",
    ) -> None:
        self._neighbours = neighbours if neighbours.size else np.zeros(1, dtype=np.int32)
        self._degrees = degrees
        self._offsets = _packed_offsets(degrees, 0)
        self._used = int(degrees.sum())
        # Block rows of the nodes removed since the last read: their
        # entries leave the neighbours' rows in one pass (_settle).
        self._pending: List[int] = []
        self._replicas = int(replicas)
        self._stride = int(stride)
        self.name = name
        self._alive = np.ones(self._replicas * self._stride, dtype=bool)
        self._node_count = [self._stride] * self._replicas

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
        # (once per endpoint), which sizes the one buffer up front; each
        # replica's keys and rows go straight into it, after the rows
        # before.
        entries = 2 * size * degree
        neighbours = np.empty(replicas * entries, dtype=np.int32)
        degrees = np.empty(replicas * size, dtype=np.int64)
        used = 0
        for replica, rng in enumerate(rngs):
            region = neighbours[used : used + entries]
            bands = _band_keys(size, owners, draw_k_out_peers(size, degree, rng), region)
            used += _rows_from_bands(
                size, region, bands, degrees[replica * size : (replica + 1) * size]
            )
        return cls(neighbours, degrees, size, replicas, name=name or f"random(k={degree})")

    @classmethod
    def from_builder(
        cls, count: int, build: "Callable[[int], StaticBlockView]"
    ) -> "ReplicatedStaticBlock":
        """Build ``count`` overlays one at a time, adopting each in turn.

        ``build(r)`` constructs replica ``r``'s ``StaticTopology``; its
        rows and alive flags are copied into the block and the instance
        is released before the next replica is built, so peak memory
        holds the block plus **one** standalone overlay (and its
        builder's edge arrays) — not ``count`` of them.  The buffer is
        sized for ``count`` copies of the first replica's rows, which is
        exact for the families with a fixed edge count, and grows by
        doubling past it.  Every replica has the first one's rows.
        """
        require_positive(count, "count")
        for replica in range(count):
            topology = build(replica)
            source, origin = topology._block, topology._replica
            source._settle()
            span = source._stride
            source_rows = slice(origin * span, (origin + 1) * span)
            degrees = source._degrees[source_rows]
            values = source._neighbours[_ragged_positions(source._offsets[source_rows], degrees)]
            if replica == 0:
                block = cls(
                    np.empty(max(1, count * values.size), dtype=np.int32),
                    np.zeros(count * span, dtype=np.int64),
                    span,
                    count,
                    topology.name,
                )
            elif span != block._stride:
                raise TopologyError(
                    f"replica {replica} has {span} rows, replica 0 has {block._stride}"
                )
            rows = slice(replica * span, (replica + 1) * span)
            start = block._claim(values.size)
            block._neighbours[start : start + values.size] = values
            block._offsets[rows] = _packed_offsets(degrees, start)
            block._degrees[rows] = degrees
            block._alive[rows] = source._alive[source_rows]
            block._node_count[replica] = source._node_count[origin]
            del topology, source, degrees, values
        return block

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> int:
        """Number of replicated overlays held by this block."""
        return self._replicas

    @property
    def stride(self) -> int:
        """Rows per replica: the node count it was built with."""
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

    def _node_ids(self, replica: int) -> np.ndarray:
        """Alive node ids of ``replica``, ascending (int64)."""
        base = replica * self._stride
        return np.flatnonzero(self._alive[base : base + self._stride])

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
        """Delete every pending victim from its neighbours' rows.

        A crash event removes many nodes between two reads, and a few
        vectorised passes serve them all: the victims go in groups of at
        most ``_SETTLE_ENTRIES`` stored entries.  Deletions commute, so
        any grouping leaves the same rows.
        """
        if not self._pending:
            return
        victims = np.asarray(self._pending, dtype=np.int64)
        self._pending = []
        for group in _budget_slices(self._degrees[victims]):
            self._delete_victims(victims[group])

    def _delete_victims(self, victims: np.ndarray) -> None:
        """One settle group: take ``victims`` (block rows) out of their neighbours' rows.

        A binary search finds each victim in each of its live neighbours'
        rows, and each such row shifts the tail after its first hit left
        by its number of hits, the tails a span of at most
        ``_SETTLE_ENTRIES`` entries at a time.  An edge between two victims
        goes with both victims' rows, whichever groups they are in: a
        removed node's row is never edited.
        """
        stride = self._stride
        counts = self._degrees[victims]
        replica_of = victims // stride
        entries = _ragged_positions(self._offsets[victims], counts)
        rows = np.repeat(replica_of * stride, counts) + self._neighbours[entries]
        lost = np.repeat(victims - replica_of * stride, counts)
        del entries
        self._degrees[victims] = 0
        live = self._alive[rows]
        rows, lost = rows[live], lost[live]
        if rows.size == 0:
            return
        positions = self._find(rows, lost)
        del lost
        # Rows own disjoint segments, so ordering the hits by position
        # groups them by row, each row's hits ascending.
        order = np.argsort(positions)
        positions, rows = positions[order], rows[order]
        del order
        head = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=head[1:])
        starts = np.append(head.nonzero()[0], rows.size)
        touched, first = rows[starts[:-1]], positions[starts[:-1]]
        del rows, head
        hits = np.diff(starts)
        tails = self._offsets[touched] + self._degrees[touched] - first
        for part in _budget_slices(tails):
            low, high = part.start, part.stop
            span = _ragged_positions(first[part], tails[part])
            keep = np.ones(span.size, dtype=bool)
            keep[
                positions[starts[low] : starts[high]]
                + np.repeat(np.cumsum(tails[part]) - tails[part] - first[part], hits[part])
            ] = False
            self._neighbours[_ragged_positions(first[part], tails[part] - hits[part])] = (
                self._neighbours[span[keep]]
            )
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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _claim(self, count: int) -> int:
        """Start of ``count`` fresh slots at the end of the buffer (grown by doubling)."""
        start = self._used
        if start + count > self._neighbours.size:
            grown = np.empty(max(2 * self._neighbours.size, start + count), dtype=np.int32)
            grown[:start] = self._neighbours[:start]
            self._neighbours = grown
        self._used = start + count
        return start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedStaticBlock(replicas={self._replicas}, "
            f"stride={self._stride}, name={self.name!r})"
        )


class StaticBlockView(OverlayProvider):
    """One replica of a :class:`ReplicatedStaticBlock` as an overlay.

    Implements the ``OverlayProvider`` surface, so the simulation
    engines — and their failure models — drive a block replica exactly
    like a standalone ``StaticTopology``, which is this view of a block
    of its own.  Nodes leave by crashing; a join raises
    :class:`~repro.common.errors.TopologyError` (the inherited
    :meth:`~repro.topology.provider.OverlayProvider.on_node_added`).
    """

    def __init__(self, block: ReplicatedStaticBlock, replica: int) -> None:
        self._block = block
        self._replica = replica
        self.name = block.name

    @property
    def replica(self) -> int:
        """Index of this view's replica within the block."""
        return self._replica

    def node_ids(self) -> np.ndarray:
        """Identifiers of all current nodes, ascending (a fresh int64 array)."""
        return self._block._node_ids(self._replica)

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

    def size(self) -> int:
        return self._block._size(self._replica)

    def contains(self, node_id: int) -> bool:
        return self._block._contains(self._replica, node_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticBlockView(replica={self._replica}, block={self._block!r})"
