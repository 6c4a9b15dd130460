"""Array-native NEWSCAST: all node caches as struct-of-arrays matrices.

The dict-based :class:`~repro.newscast.protocol.NewscastOverlay` keeps one
``NewscastCache`` object per node and runs every cache exchange as a
Python-level merge — fine at a few thousand nodes, hopeless at the
paper's 10^5.  This module stores *all* caches in one ``(rows, c)``
matrix and runs the whole per-cycle maintenance round as a handful of
batched NumPy passes, which is what lets ``make_simulator`` keep the
dynamic-membership figures (4b, 6b, 7b) on the array engine.

Representation
--------------
A cache entry ``(timestamp, peer_id)`` is packed into one integer as
``((timestamp - base) << ID_BITS) | peer_id`` (``-1`` marks an empty
slot), where ``base`` is the matrix's *timestamp base*.  With integral
timestamps — the overlay clock only ever advances by 1 — the numeric
order of packed values *is* the ``CacheEntry`` order
``(timestamp, peer_id)``, so plain value sorts replace object
comparisons, and "keep the ``c`` freshest with deterministic
``(timestamp, peer_id)`` tie-breaking" becomes "sort descending, slice".
Each row stores its valid entries first (freshest first), then ``-1``
padding; ``_counts[row]`` holds the number of valid entries.

The matrix is int32 — 7 timestamp bits above the 24 id bits — and the
storage dtype is the kernel dtype: :func:`merge_packed_pairs` works in
whatever dtype its rows have and never converts.

* **Slide rule.**  Right after the clock advances, if ``clock - base``
  no longer fits the timestamp bits, one ``O(rows * c)`` pass moves the
  oldest live timestamp from every valid entry into the base.  A shift
  of all timestamps preserves the entry order, so the slide is exact;
  live descriptors are a few cycles old, so it runs every ~120 rounds.
* **Widening rule.**  Only if the live spread itself cannot fit (a tiny
  overlay whose caches never fill keeps a dead node's descriptor for
  good) is the matrix converted to int64, one way; ``packing`` and
  ``widened_at`` report it.  Matrix, base and dtype belong to the
  :class:`ReplicatedNewscastBlock`, so all its replicas slide and widen
  together.
* **Memory law.**  The matrix is ``rows * c * 4`` bytes (12 MB at
  N = 10^5, c = 30); a round is applied in blocks of ``_MERGE_BLOCK``
  exchanges, so the gather/kernel/scatter scratch is bounded by that
  constant, not by the round size, and stays cache-resident.  The
  bootstrap samples its first replica before it allocates the matrix
  and writes each replica's draw straight into its rows, so it holds at
  most the matrix plus one int32 ``(N, c)`` draw and, while sampling,
  one int64 chunk of the sampler and its bool mask.

One store
---------
A :class:`ReplicatedNewscastBlock` holds the caches of ``R`` replicas
as row slices of one matrix, with one clock and one timestamp base; a
:class:`VectorizedNewscastOverlay` is the view of one replica, owning
only its membership (id-to-row map, alive rows, free rows) and its
reachability model.  A standalone overlay is the view of a one-replica
block, so the engines run one code path for one run and for ``R``.

Equivalence to the dict implementation (documented per property)
----------------------------------------------------------------
* **Bit-level — the merge kernel.**  :func:`merge_packed_pairs`
  reproduces :meth:`NewscastCache.merged_with` exactly: union of both
  caches plus fresh descriptors, own-id entries excluded, per-peer
  dedup keeping the freshest descriptor, the ``c`` freshest survivors
  kept with ``(timestamp, peer_id)`` tie-breaking identical to
  ``NewscastCache.entries()``.  The equivalence suite checks this
  entry-for-entry against the dict merge (hypothesis property).
* **Bit-level — the two engines.**  Given the *same*
  ``VectorizedNewscastOverlay`` class on both sides, the reference
  ``CycleSimulator`` and the stacked array engine (through either entry,
  ``VectorizedCycleSimulator`` or ``ReplicatedCycleSimulator``) consume
  identical overlay randomness (both maintain the overlay with the run's
  ``overlay`` stream and draw peers through ``select_peers_batch``), so
  a root seed produces the same exchange schedule and the same caches in
  either engine.
* **Distribution-level — the maintenance round.**  The dict overlay
  runs its exchanges strictly sequentially: a node's *peer choice* can
  read a cache that an earlier exchange of the same round already
  rewrote.  The batched round draws all peer choices up front from the
  start-of-round caches, then applies the exchanges with the same
  sequential read-after-write semantics as the reference (via
  :func:`~repro.simulator.sampling.ordered_conflict_rounds`).  The two
  overlays therefore follow different — but identically distributed —
  trajectories; the equivalence suite asserts that aggregation over
  both matches in convergence-factor terms under no-failure, churn and
  message-loss scenarios.

One bootstrap sampler
---------------------
Every node's initial cache is ``min(c, N - 1)`` distinct uniform peers at
timestamp 0, drawn by
:func:`~repro.topology.replicated.sample_distinct_peers` — one batched
draw at every size, the same sampler (and the same stream use) as the
k-out overlay builder and the dict oracle's bootstrap, so both NEWSCAST
overlays start from identical caches.

One merge per exchange, not two
-------------------------------
After a NEWSCAST exchange the two participants keep *almost* the same
cache: both equal the ``c`` freshest of the shared deduped pool
``A ∪ B ∪ {(a, now), (b, now)}`` minus their own fresh descriptor (the
pool's per-peer dedup collapses every own-id entry into the own fresh
descriptor, because ``now`` is the maximal timestamp).  The kernel
therefore computes the pool's top ``c + 1`` once per pair and derives
each side by deleting one element — half the sort work of merging each
direction independently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import MembershipError
from ..common.rng import RandomSource
from ..common.validation import require_positive
from ..simulator.sampling import conflict_scratch, ordered_conflict_rounds
from ..topology.base import OverlayProvider
from ..topology.replicated import sample_distinct_peers
from .cache import CacheEntry, NewscastCache

__all__ = [
    "ID_BITS",
    "MAX_NODE_ID",
    "VectorizedNewscastOverlay",
    "ReplicatedNewscastBlock",
    "merge_packed_pairs",
    "unpack_entries",
]

#: Bits of a packed entry reserved for the peer identifier.
ID_BITS = 24
#: Largest representable node identifier (24 bits: ~16.7M nodes).
MAX_NODE_ID = (1 << ID_BITS) - 1
_EMPTY = -1
#: Exchanges merged per kernel call (see "Memory law" above); 1024-4096
#: measure the same.
_MERGE_BLOCK = 2048


# ----------------------------------------------------------------------
# Unpacking (cache_of)
# ----------------------------------------------------------------------
# reach: oracle — decodes a packed row for cache_of
def unpack_entries(row: np.ndarray, base: int = 0) -> List[CacheEntry]:
    """The valid entries of a packed row (either dtype) as ``CacheEntry`` objects."""
    valid = row[row >= 0]
    return [
        CacheEntry(
            timestamp=float(base + (int(value) >> ID_BITS)),
            peer_id=int(value) & MAX_NODE_ID,
        )
        for value in valid
    ]


def _timestamp_bits(dtype: np.dtype) -> int:
    """Timestamp bits of a packed entry: the value bits above the id field."""
    return 8 * dtype.itemsize - 1 - ID_BITS


# ----------------------------------------------------------------------
# The batched merge kernel
# ----------------------------------------------------------------------
def merge_packed_pairs(
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    ids_a: np.ndarray,
    ids_b: np.ndarray,
    now: int,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge ``k`` cache pairs at once; return both directions' new rows.

    Parameters
    ----------
    rows_a, rows_b:
        ``(k, capacity)`` packed cache rows of the initiators and their
        exchange partners (start-of-exchange states), int32 or int64.
        The kernel computes — and returns — in that dtype.
    ids_a, ids_b:
        The participants' node identifiers, aligned with the rows.
    now:
        The (integral) logical time stamped onto the fresh descriptors,
        relative to the rows' timestamp base; no stored timestamp may
        exceed it, and it must fit the dtype's timestamp bits.
    capacity:
        The cache capacity ``c``.

    Returns
    -------
    ``(new_a, new_b)`` — packed ``(k, capacity)`` rows equal,
    entry-for-entry, to ``NewscastCache.merged_with`` applied to each
    direction of every pair.
    """
    k = int(ids_a.size)
    width = 2 * capacity + 2
    dtype = rows_a.dtype.type
    if k == 0:
        empty = np.empty((0, capacity), dtype=dtype)
        return empty, empty
    ts_bits = _timestamp_bits(rows_a.dtype)
    if not 0 <= now < (1 << ts_bits):
        raise ValueError(f"timestamp {now} does not fit a {rows_a.dtype} packing")
    ts_mask = dtype((1 << ts_bits) - 1)

    candidates = np.empty((k, width), dtype=dtype)
    candidates[:, :capacity] = rows_a
    candidates[:, capacity : 2 * capacity] = rows_b
    candidates[:, width - 2] = ids_a
    candidates[:, width - 1] = ids_b
    candidates[:, width - 2 :] |= dtype(int(now) << ID_BITS)
    fresh = candidates[:, width - 2 :].copy()

    # Repack id-major: (id << ts_bits) | ts.  Empty slots stay -1 because
    # (x >> ID_BITS) == -1 for x == -1 and (y | -1) == -1.
    id_major = candidates & dtype(MAX_NODE_ID)
    id_major <<= ts_bits
    candidates >>= ID_BITS
    id_major |= candidates
    id_major.sort(axis=1)
    # Per-peer dedup: id groups are contiguous with timestamps ascending,
    # so the last entry of each group is the peer's freshest descriptor.
    # Adjacent entries belong to different groups iff their XOR reaches
    # into the id field; the XOR also handles the empty block for free
    # (-1 ^ -1 == 0 keeps dropping empties, and -1 ^ valid is negative, so
    # the boundary empty is dropped too).  The final column is always the
    # largest value of the row — a valid entry, since the fresh
    # descriptors are always present — and always survives.  The XOR runs
    # over the flat matrix (one contiguous pass); what it computes across
    # a row end is overwritten by that rule.
    flat = id_major.reshape(-1)
    keep = np.empty(k * width, dtype=bool)
    np.greater(flat[:-1] ^ flat[1:], ts_mask, out=keep[:-1])
    keep.reshape(k, width)[:, -1] = True
    # Back to timestamp-major order; dropped entries become -1 again
    # (OR with keep - 1: 0 for a survivor, -1 for a dropped entry).
    survivors = id_major & ts_mask
    survivors <<= ID_BITS
    id_major >>= ts_bits
    survivors |= id_major
    survivors |= np.subtract(keep.view(np.int8), 1, dtype=dtype).reshape(k, width)
    survivors.sort(axis=1)
    # The pool's top (capacity + 1), freshest first.  Both fresh
    # descriptors carry the maximal timestamp, so after dedup the only
    # own-id entry each side might see is its own fresh descriptor.
    top = survivors[:, : width - capacity - 2 : -1].copy()
    head = top[:, :capacity]
    tail = top[:, 1:]
    # Each side deletes its own descriptor from the (descending) top
    # slice: entries greater than it stay put, the rest shift up by one.
    # The pool always contains the descriptor, so if it ranks below the
    # top `capacity`, every kept entry is greater and the surplus last
    # element just drops.
    new_a = np.where(head > fresh[:, :1], head, tail)
    new_b = np.where(head > fresh[:, 1:], head, tail)
    return new_a, new_b


def _apply_rounds(
    packed: np.ndarray, id_by_row: np.ndarray, rounds, now: int, capacity: int
) -> None:
    """Apply conflict rounds of exchanges to ``packed`` in place.

    The pairs of one round are row-disjoint, so a round may be applied
    in any partition: blocks of ``_MERGE_BLOCK`` pairs keep the gathered
    rows and the kernel's temporaries cache-resident.
    """
    for batch_a, batch_b, _ in rounds:
        for start in range(0, batch_a.size, _MERGE_BLOCK):
            rows_a = batch_a[start : start + _MERGE_BLOCK]
            rows_b = batch_b[start : start + _MERGE_BLOCK]
            packed[rows_a], packed[rows_b] = merge_packed_pairs(
                packed.take(rows_a, axis=0),
                packed.take(rows_b, axis=0),
                id_by_row.take(rows_a),
                id_by_row.take(rows_b),
                now,
                capacity,
            )


def _extended(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` followed by ``-1`` up to ``size`` entries (int64)."""
    grown = np.full(size, -1, dtype=np.int64)
    grown[: array.size] = array
    return grown


class ReplicatedNewscastBlock:
    """The packed cache store of ``R`` array-native NEWSCAST replicas.

    The replicated cycle engine runs ``R`` repetitions of a NEWSCAST
    scenario side by side; each repetition draws its own maintenance
    randomness, but the heavy kernel work — conflict-round scheduling and
    the packed merge — is identical in shape across replicas.  The block
    owns everything that is not membership: one stacked ``(R * stride,
    c)`` matrix (replica ``r`` owns rows ``[r * stride, (r + 1) *
    stride)``), the entry counts, the row-to-id map, the conflict scratch,
    one clock, one timestamp base and one dtype, so the slide and the
    widening are block operations.  Each replica is a
    :class:`VectorizedNewscastOverlay` view that owns only its membership;
    a standalone overlay is the view of a one-replica block.

    One maintenance round for all replicas is *one* sequence of stacked
    passes: per-replica peer draws (each from its own stream — the
    bit-identity anchor), one :func:`ordered_conflict_rounds` over the
    offset row ids (replicas are row-disjoint, so the stacked rounds
    refine into each replica's own rounds), and one
    :func:`merge_packed_pairs` call per round spanning every replica.  A
    replica that needs a row when its slice is full grows the stride of
    the whole block; every replica keeps its row numbers.

    Each view holds its block and the block holds no view, so reference
    counting frees a finished run.
    """

    def __init__(self, replicas: int, stride: int, cache_size: int) -> None:
        """Empty storage: ``replicas`` slices of ``stride`` entry-less rows."""
        self._replicas = int(replicas)
        self._stride = int(stride)
        self._cache_size = int(cache_size)
        self._clock = 0
        self._ts_base = 0
        self._widened_at: Optional[int] = None
        rows = self._replicas * self._stride
        self._packed = np.full((rows, self._cache_size), _EMPTY, dtype=np.int32)
        self._counts = np.zeros(rows, dtype=np.int64)
        self._id_by_row = np.full(rows, -1, dtype=np.int64)
        self._scratch = conflict_scratch(rows)

    @classmethod
    def bootstrap(
        cls,
        count: int,
        size: int,
        cache_size: int,
        rngs: Sequence[RandomSource],
        warmup_cycles: int = 5,
    ) -> List["VectorizedNewscastOverlay"]:
        """Bootstrap ``count`` replicas of ``size`` nodes in one block; return their views.

        Mirrors :meth:`NewscastOverlay.bootstrap`: every node of replica
        ``r`` starts with the same ``min(cache_size, size - 1)`` distinct
        uniformly random peers at timestamp 0 (one
        ``sample_distinct_peers`` draw from ``rngs[r]``, written straight
        into the replica's rows), then ``warmup_cycles`` stacked
        maintenance rounds run, replica ``r`` drawing from ``rngs[r]``, so
        the caches resemble the protocol's steady state.  Each replica is
        bit-identical to a one-replica bootstrap from its stream.
        """
        require_positive(size, "size")
        require_positive(cache_size, "cache_size")
        if size - 1 > MAX_NODE_ID:
            raise MembershipError(
                f"array-native NEWSCAST supports node ids up to {MAX_NODE_ID}"
            )
        if count < 1 or len(rngs) != count:
            raise MembershipError("need one bootstrap stream per replica")
        fill = min(cache_size, size - 1)
        rows = np.arange(size, dtype=np.int64)
        block: Optional[ReplicatedNewscastBlock] = None
        views = []
        for replica, rng in enumerate(rngs):
            # The first draw comes before the block is allocated and each
            # draw is released once written, so at most one replica's
            # sampler scratch is alive at a time.
            peers = sample_distinct_peers(size, fill, rng.generator) if fill else None
            if block is None:
                block = cls(count, size, cache_size)
            view = VectorizedNewscastOverlay(block, replica)
            view._row_by_id = rows.copy()
            view._row_pos = rows.copy()
            view._alive_rows = rows.copy()
            view._alive_count = size
            own = view._own()
            block._id_by_row[own] = rows
            if fill:
                # Timestamp 0 packs to the peer id itself; the sampler's rows
                # are ascending, and freshest-first means by peer id descending.
                block._packed[own, :fill] = peers[:, ::-1]
                del peers
            block._counts[own] = fill
            views.append(view)
        for _ in range(max(0, int(warmup_cycles))):
            block.after_cycle_stacked(list(zip(views, rngs)))
        return views

    # ------------------------------------------------------------------
    # The stacked maintenance round
    # ------------------------------------------------------------------
    def after_cycle_stacked(self, pairs: Sequence[tuple]) -> None:
        """Run one maintenance round for every ``(view, rng)`` pair of the block.

        The clock advances once for all replicas.  Peer draws come from
        each replica's own stream (bit-identical to a one-replica block's
        ``after_cycle(rng)``); the conflict scheduling and the packed
        merges run once over the stacked rows.
        """
        if len(pairs) != self._replicas:
            raise MembershipError("a stacked round maintains every replica of its block")
        self._clock += 1
        if (self._clock - self._ts_base) >> _timestamp_bits(self._packed.dtype):
            self._slide_base()
        stacked_initiators = []
        stacked_peers = []
        for view, rng in pairs:
            initiators, peer_rows = view._draw_maintenance_round(rng)
            first = view._replica * self._stride
            if first:
                initiators, peer_rows = initiators + first, peer_rows + first
            stacked_initiators.append(initiators)
            stacked_peers.append(peer_rows)
        if len(pairs) > 1:
            # Stacked rows fit int32, which halves the index arrays the
            # conflict peel and its rounds hold (they keep the input dtype).
            initiators = np.concatenate(stacked_initiators, dtype=np.int32)
            peer_rows = np.concatenate(stacked_peers, dtype=np.int32)
        del stacked_initiators, stacked_peers
        if initiators.size == 0:
            return
        rounds = ordered_conflict_rounds(
            initiators, peer_rows, self._scratch, track_positions=False
        )
        del initiators, peer_rows
        now = self._clock - self._ts_base
        _apply_rounds(self._packed, self._id_by_row, rounds, now, self._cache_size)
        for view, _ in pairs:
            view._refresh_counts()

    # ------------------------------------------------------------------
    # The sliding timestamp base (module docstring, "Representation")
    # ------------------------------------------------------------------
    def _slide_base(self) -> None:
        """Make ``clock - base`` fit the packing again: slide, else widen."""
        # Viewed unsigned, the empty slots (-1) are the largest values.
        unsigned = self._packed.view(f"u{self._packed.itemsize}")
        stored = int(unsigned.min(initial=np.iinfo(unsigned.dtype).max)) >> ID_BITS
        oldest = min(self._clock - self._ts_base, stored)
        if (self._clock - self._ts_base - oldest) >> _timestamp_bits(self._packed.dtype):
            self._packed = self._packed.astype(np.int64)
            self._widened_at = self._clock
        # An entry-less matrix has nothing to move (and slides by the whole
        # clock span, which need not fit the dtype).
        if oldest and (valid := self._packed >= 0).any():
            np.subtract(self._packed, oldest << ID_BITS, out=self._packed, where=valid)
        self._ts_base += oldest

    def _grow_stride(self, stride: int) -> None:
        """Give every replica ``stride`` rows; each keeps its row numbers."""
        old, replicas, cache_size = self._stride, self._replicas, self._cache_size
        packed = np.full((replicas, stride, cache_size), _EMPTY, dtype=self._packed.dtype)
        packed[:, :old] = self._packed.reshape(replicas, old, cache_size)
        self._packed = packed.reshape(replicas * stride, cache_size)
        counts = np.zeros((replicas, stride), dtype=np.int64)
        counts[:, :old] = self._counts.reshape(replicas, old)
        self._counts = counts.reshape(-1)
        ids = np.full((replicas, stride), -1, dtype=np.int64)
        ids[:, :old] = self._id_by_row.reshape(replicas, old)
        self._id_by_row = ids.reshape(-1)
        self._scratch = conflict_scratch(replicas * stride)
        self._stride = stride

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedNewscastBlock(replicas={self._replicas}, "
            f"stride={self._stride}, c={self._cache_size})"
        )


class VectorizedNewscastOverlay(OverlayProvider):
    """NEWSCAST maintained as struct-of-arrays matrices: one replica of a block.

    A drop-in for :class:`~repro.newscast.protocol.NewscastOverlay` whose
    peer draw and maintenance round are array passes.  Node identifiers
    must stay below :data:`MAX_NODE_ID`.  The caches live in replica
    ``replica``'s rows of a :class:`ReplicatedNewscastBlock`, which also
    keeps the clock and the timestamp base; the view owns the replica's
    membership and reachability.  :meth:`bootstrap` builds a standalone
    overlay, the view of a one-replica block.

    Membership churn is wired through *row recycling*: every node owns
    one row, rows of removed nodes go to a free list and are reused for
    joiners, and a swap-remove alive-row list gives O(1) membership
    updates and O(1) uniform contact sampling — so ``ChurnModel``, crash
    models and epoch restarts drive this overlay through the exact same
    ``on_node_added`` / ``on_node_removed`` API as every other overlay,
    without the rows ever growing beyond the peak live population.
    """

    def __init__(self, block: ReplicatedNewscastBlock, replica: int) -> None:
        """An entry-less view of replica ``replica`` of ``block``."""
        self._block = block
        self._replica = int(replica)
        self._reachability = None
        self._reachability_round = 0
        self.name = f"newscast-array(c={block._cache_size})"
        #: Number of NEWSCAST exchanges performed in the most recent cycle.
        self.last_cycle_exchanges = 0
        self._row_pos = np.empty(0, dtype=np.int64)
        self._alive_rows = np.empty(0, dtype=np.int64)
        self._alive_count = 0
        self._free_rows: List[int] = []
        self._row_by_id = np.empty(0, dtype=np.int64)

    @classmethod
    def bootstrap(
        cls,
        size: int,
        cache_size: int,
        rng: RandomSource,
        warmup_cycles: int = 5,
    ) -> "VectorizedNewscastOverlay":
        """Create an overlay of ``size`` nodes with warmed-up caches.

        The one-replica :meth:`ReplicatedNewscastBlock.bootstrap`: every
        draw and every warm-up round comes from ``rng``.
        """
        (overlay,) = ReplicatedNewscastBlock.bootstrap(
            1, size, cache_size, [rng], warmup_cycles
        )
        return overlay

    # ------------------------------------------------------------------
    # This replica's rows of the block
    # ------------------------------------------------------------------
    def _own(self) -> slice:
        """The block rows of this replica."""
        stride = self._block._stride
        return slice(self._replica * stride, (self._replica + 1) * stride)

    def _rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This replica's ``(packed, counts, id_by_row)`` slices of the block."""
        block, own = self._block, self._own()
        return block._packed[own], block._counts[own], block._id_by_row[own]

    @property
    def _packed(self) -> np.ndarray:
        return self._block._packed[self._own()]

    @property
    def _counts(self) -> np.ndarray:
        return self._block._counts[self._own()]

    @property
    def _id_by_row(self) -> np.ndarray:
        return self._block._id_by_row[self._own()]

    # ------------------------------------------------------------------
    # OverlayProvider interface
    # ------------------------------------------------------------------
    def node_ids(self) -> np.ndarray:
        """Identifiers of all current nodes, ascending (int64)."""
        return np.sort(self._id_by_row[self._alive_rows[: self._alive_count]])

    def neighbors(self, node_id: int) -> Sequence[int]:
        row = self._row_of(node_id)
        if row < 0:
            raise MembershipError(f"unknown node {node_id}")
        count = int(self._counts[row])
        return tuple((self._packed[row, :count] & MAX_NODE_ID).tolist())

    def select_peers_batch(
        self, node_ids: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Draw one uniform cache entry for every node in ``node_ids``.

        Returns an int64 array aligned with ``node_ids``; ``-1`` marks
        nodes with an empty cache and identifiers the overlay does not
        know (which consume no randomness).  The returned peers may be
        crashed — exactly like the dict overlay's draw, the caller
        decides what a stale descriptor means.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        if node_ids.min() < 0 or node_ids.max() >= self._row_by_id.size:
            known = (node_ids >= 0) & (node_ids < self._row_by_id.size)
            peers = np.full(node_ids.size, -1, dtype=np.int64)
            peers[known] = self.select_peers_batch(node_ids[known], generator)
            return peers
        rows = self._row_by_id[node_ids]
        counts = np.where(rows >= 0, self._counts[rows], 0)
        draws = (generator.random(node_ids.size) * counts).astype(np.int64)
        # Removed nodes (row -1, count 0) gather the last row's first slot.
        draws += rows * self._block._cache_size
        peers = (self._packed.ravel()[draws] & MAX_NODE_ID).astype(np.int64)
        peers[counts == 0] = -1
        return peers

    def contains(self, node_id: int) -> bool:
        return self._row_of(node_id) >= 0

    def size(self) -> int:
        return self._alive_count

    def on_node_removed(self, node_id: int) -> None:
        row = self._row_of(node_id)
        if row < 0:
            return
        packed, counts, id_by_row = self._rows()
        self._row_by_id[node_id] = -1
        id_by_row[row] = -1
        packed[row] = _EMPTY
        counts[row] = 0
        # Swap-remove from the alive-row list, recycle the row.
        position = int(self._row_pos[row])
        last = self._alive_rows[self._alive_count - 1]
        self._alive_rows[position] = last
        self._row_pos[last] = position
        self._alive_count -= 1
        self._free_rows.append(int(row))

    def on_node_added(self, node_id: int, rng: RandomSource) -> None:
        if node_id < 0 or node_id > MAX_NODE_ID:
            raise MembershipError(
                f"node id {node_id} outside the packed range [0, {MAX_NODE_ID}]"
            )
        if self._row_of(node_id) >= 0:
            raise MembershipError(f"node {node_id} already exists")
        contact_row = -1
        if self._alive_count > 0:
            contact_row = int(self._alive_rows[rng.choice_index(self._alive_count)])
        row = self._allocate_row(node_id)
        # After the allocation, which may have grown the block.
        packed, counts, id_by_row = self._rows()
        id_by_row[row] = node_id
        packed[row] = _EMPTY
        counts[row] = 0
        if contact_row >= 0:
            cache_size = self._block._cache_size
            contact_id = int(id_by_row[contact_row])
            now_packed = (self._block._clock - self._block._ts_base) << ID_BITS
            # The joining node learns the contact plus the contact's view
            # (minus any stale descriptor of itself).
            pool = np.concatenate((packed[contact_row], [now_packed | contact_id]))
            pool[(pool & MAX_NODE_ID) == node_id] = _EMPTY
            pool[::-1].sort()
            packed[row] = pool[:cache_size]
            counts[row] = int(np.count_nonzero(packed[row] >= 0))
            # The contact also hears about the new node right away.
            contact_pool = np.concatenate((packed[contact_row], [now_packed | node_id]))
            contact_pool[::-1].sort()
            packed[contact_row] = contact_pool[:cache_size]
            counts[contact_row] = int(np.count_nonzero(packed[contact_row] >= 0))

    def set_reachability(self, model) -> None:
        """Constrain membership exchanges by a pairwise reachability model.

        Mirrors :meth:`NewscastOverlay.set_reachability`: blocked
        ``initiator → peer`` pairs skip their membership exchange, which
        lets partition outages split the overlay itself.  The model's
        cycle indices count maintenance rounds from the moment of
        attachment (1-based, aligned with engine cycles), not from the
        overlay's warm-up-advanced clock.
        """
        self._reachability = model
        self._reachability_round = 0

    def after_cycle(self, rng: RandomSource) -> None:
        """Run one batched round of NEWSCAST exchanges over all live nodes.

        Every live node initiates one exchange with a uniformly random
        entry of its cache (peer choices drawn from the start-of-round
        caches); exchanges whose target has crashed time out.  The
        surviving exchanges are applied with the reference engine's
        sequential read-after-write semantics via
        :func:`~repro.simulator.sampling.ordered_conflict_rounds`.  The
        replicas of a larger block share one clock, so only
        :meth:`ReplicatedNewscastBlock.after_cycle_stacked` maintains
        them, all at once.
        """
        if self._block._replicas != 1:
            raise MembershipError(
                "a replica of a stacked block is maintained by its block's after_cycle_stacked"
            )
        self._block.after_cycle_stacked([(self, rng)])

    def _draw_maintenance_round(
        self, rng: RandomSource
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw one round's exchange endpoints from ``rng``.

        The stream-consuming half of a maintenance round, kept separate so
        the block can draw every replica's round from its own stream and
        then apply all rounds as one stacked pass.  Returns
        ``(initiator_rows, peer_rows)`` of the usable exchanges, in this
        replica's row numbers (empty arrays when nobody can gossip).
        """
        self._reachability_round += 1
        count = self._alive_count
        if count == 0:
            self.last_cycle_exchanges = 0
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        generator = rng.generator
        initiators = self._alive_rows[:count][generator.permutation(count)]
        cache_sizes = self._counts[initiators]
        draws = (generator.random(count) * cache_sizes).astype(np.int64)
        draws += initiators * self._block._cache_size
        peer_ids = self._packed.ravel()[draws] & MAX_NODE_ID
        # Empty caches produce a garbage id from the -1 padding; pin them
        # to a safe in-range id before the row lookup, then filter.
        peer_ids[cache_sizes == 0] = 0
        peer_rows = self._row_by_id[peer_ids]
        usable = (cache_sizes > 0) & (peer_rows >= 0)
        if self._reachability is not None:
            blocked = self._reachability.blocked_pairs(
                self._id_by_row[initiators], peer_ids, self._reachability_round
            )
            if blocked is not None:
                usable &= ~blocked
        initiators = initiators[usable]
        peer_rows = peer_rows[usable]
        self.last_cycle_exchanges = int(initiators.size)
        return initiators, peer_rows

    def _refresh_counts(self) -> None:
        """Recount the live rows, once per round (merges never read counts)."""
        # Valid entries come first, so a valid last slot means a full row;
        # only the short rows are gathered and counted.
        packed, counts = self._packed, self._counts
        rows = self._alive_rows[: self._alive_count]
        counts[rows] = self._block._cache_size
        short = rows[packed[:, -1][rows] < 0]
        counts[short] = np.count_nonzero(packed[short] >= 0, axis=1)

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and analysis
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        """The configured cache capacity ``c``."""
        return self._block._cache_size

    @property
    def clock(self) -> float:
        """The overlay's logical clock (one tick per NEWSCAST cycle)."""
        return float(self._block._clock)

    @property
    def packing(self) -> str:
        """Dtype of the cache matrix: ``"int32"``, or ``"int64"`` once widened."""
        return self._block._packed.dtype.name

    @property
    def widened_at(self) -> Optional[int]:
        """Clock of the one-way widening to int64, ``None`` while int32."""
        return self._block._widened_at

    # reach: oracle — a node's cache as a NewscastCache, compared with the dict NEWSCAST
    def cache_of(self, node_id: int) -> NewscastCache:
        """The cache of ``node_id`` as a ``NewscastCache`` (for tests)."""
        row = self._row_of(node_id)
        if row < 0:
            raise MembershipError(f"unknown node {node_id}")
        entries = unpack_entries(self._packed[row], self._block._ts_base)
        return NewscastCache(self._block._cache_size, entries)

    def stale_reference_fraction(self) -> float:
        """Fraction of cache entries across live nodes pointing to dead peers."""
        rows = self._alive_rows[: self._alive_count]
        if rows.size == 0:
            return 0.0
        entries = self._packed[rows]
        valid = entries >= 0
        total = int(np.count_nonzero(valid))
        if total == 0:
            return 0.0
        # Mask the padding out *before* deriving ids: -1 slots would
        # otherwise alias to id MAX_NODE_ID and index out of bounds.
        ids = entries[valid] & MAX_NODE_ID
        stale = int(np.count_nonzero(self._row_by_id[ids] < 0))
        return stale / total

    def in_degree_distribution(self) -> Dict[int, int]:
        """How many live caches reference each live node."""
        rows = self._alive_rows[: self._alive_count]
        ids_by_row = self._id_by_row
        counts: Dict[int, int] = {int(ids_by_row[row]): 0 for row in rows}
        entries = self._packed[rows]
        ids = (entries[entries >= 0] & MAX_NODE_ID).ravel()
        alive = ids[self._row_by_id[ids] >= 0]
        for node, count in zip(*np.unique(alive, return_counts=True)):
            if int(node) in counts:
                counts[int(node)] = int(count)
        return counts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _row_of(self, node_id: int) -> int:
        if 0 <= node_id < self._row_by_id.size:
            return int(self._row_by_id[node_id])
        return -1

    def _allocate_row(self, node_id: int) -> int:
        """Map ``node_id`` to a free row, growing the block if none is; the caller fills it."""
        if node_id >= self._row_by_id.size:
            self._row_by_id = _extended(
                self._row_by_id, max(node_id + 1, 2 * self._row_by_id.size)
            )
        block = self._block
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = self._alive_count
            if row >= block._stride:
                block._grow_stride(max(2 * block._stride, row + 1))
        if self._row_pos.size < block._stride:
            self._row_pos = _extended(self._row_pos, block._stride)
            self._alive_rows = _extended(self._alive_rows, block._stride)
        self._row_by_id[node_id] = row
        self._alive_rows[self._alive_count] = row
        self._row_pos[row] = self._alive_count
        self._alive_count += 1
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorizedNewscastOverlay(replica={self._replica}, "
            f"c={self._block._cache_size}, nodes={self._alive_count})"
        )
