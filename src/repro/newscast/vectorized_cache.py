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
  ``widened_at`` report it.  Overlays attached to a
  :class:`ReplicatedNewscastBlock` share one base: they slide together
  and, if the block widens, are re-homed onto the new matrix.
* **Memory law.**  The matrix is ``rows * c * 4`` bytes (12 MB at
  N = 10^5, c = 30); a round is applied in blocks of ``_MERGE_BLOCK``
  exchanges, so the gather/kernel/scatter scratch is bounded by that
  constant, not by the round size, and stays cache-resident.  The
  bootstrap samples before it allocates the matrix, so it holds at most
  the matrix plus the int32 ``(N, c)`` draw, or, while sampling, that
  draw plus one int64 chunk of the sampler and its bool mask.

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
    "pack_entries",
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
# Packing helpers (shared with the tests)
# ----------------------------------------------------------------------
def pack_entries(entries: Sequence[CacheEntry], capacity: int, base: int = 0) -> np.ndarray:
    """Pack ``entries`` into one padded int64 row (freshest first).

    Timestamps are stored relative to ``base``; a row whose relative
    timestamps stay below 128 may be narrowed with ``astype(np.int32)``.
    """
    row = np.full(capacity, _EMPTY, dtype=np.int64)
    ordered = sorted(entries, reverse=True)[:capacity]
    for column, entry in enumerate(ordered):
        timestamp = int(entry.timestamp)
        if timestamp != entry.timestamp:
            raise ValueError("packed caches require integral timestamps")
        row[column] = ((timestamp - base) << ID_BITS) | entry.peer_id
    return row


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


class ReplicatedNewscastBlock:
    """``R`` array-native NEWSCAST overlays sharing one packed cache block.

    The replicated cycle engine runs ``R`` repetitions of a NEWSCAST
    scenario side by side; each repetition's overlay draws its own
    maintenance randomness, but the heavy kernel work — conflict-round
    scheduling and the packed merge — is identical in shape across
    replicas.  This block adopts ``R``
    :class:`VectorizedNewscastOverlay` instances by re-homing their
    matrices (``_packed``, ``_counts``, ``_id_by_row``) as row slices of
    one stacked ``(R * rows, c)`` matrix, then runs the whole
    maintenance round for all replicas as *one* sequence of stacked
    passes: per-replica peer draws (each from its own stream — the
    bit-identity anchor), one :func:`ordered_conflict_rounds` over the
    offset row ids (replicas are row-disjoint, so the stacked rounds
    refine into each replica's own rounds), and one
    :func:`merge_packed_pairs` call per round spanning every replica.

    The adopted overlays remain fully functional on their own — churn,
    joins and scalar queries go through the instance API unchanged,
    operating on the shared storage.  If an instance ever outgrows its
    slice (``_grow_rows`` reallocates, detaching it from the block), the
    stacked pass notices and falls back to that instance's private
    ``after_cycle`` — correctness never depends on the stacking.
    """

    def __init__(self, overlays: Sequence["VectorizedNewscastOverlay"]) -> None:
        if not overlays:
            raise MembershipError("need at least one overlay to stack")
        cache_size = overlays[0]._cache_size
        for overlay in overlays:
            if overlay._cache_size != cache_size:
                raise MembershipError("stacked overlays must share the cache size")
            if overlay.maintenance_block is not None:
                raise MembershipError("overlay already belongs to a block")
        self._overlays: List["VectorizedNewscastOverlay"] = list(overlays)
        self._cache_size = cache_size
        self._stride = max(overlay._row_capacity for overlay in overlays)
        count = len(overlays)
        stride = self._stride
        # One base (the oldest) and one dtype for all: int64 if any overlay
        # is wide already or its clock does not fit above the shared base.
        ts_base = min(overlay._ts_base for overlay in overlays)
        dtype = np.result_type(*(overlay._packed.dtype for overlay in overlays))
        if (max(o._clock for o in overlays) - ts_base) >> _timestamp_bits(dtype):
            dtype = np.dtype(np.int64)
        self._packed = np.full((count * stride, cache_size), _EMPTY, dtype=dtype)
        self._counts = np.zeros(count * stride, dtype=np.int64)
        self._id_by_row = np.full(count * stride, -1, dtype=np.int64)
        self._scratch = conflict_scratch(count * stride)
        for index, overlay in enumerate(overlays):
            base = index * stride
            rows = overlay._row_capacity
            self._packed[base : base + rows] = overlay._packed
            self._counts[base : base + rows] = overlay._counts
            self._id_by_row[base : base + rows] = overlay._id_by_row
            overlay._rehome(self._packed[base : base + stride], overlay._clock)
            overlay._shift_base(ts_base - overlay._ts_base)
            overlay._counts = self._counts[base : base + stride]
            overlay._id_by_row = self._id_by_row[base : base + stride]
            if rows < stride:
                grown = np.full(stride, -1, dtype=np.int64)
                grown[:rows] = overlay._row_pos
                overlay._row_pos = grown
                grown = np.full(stride, -1, dtype=np.int64)
                grown[:rows] = overlay._alive_rows
                overlay._alive_rows = grown
            overlay._row_capacity = stride
            overlay.maintenance_block = self
            overlay.block_index = index

    @classmethod
    def bootstrap(
        cls,
        count: int,
        size: int,
        cache_size: int,
        rngs: Sequence[RandomSource],
        warmup_cycles: int = 5,
    ) -> "ReplicatedNewscastBlock":
        """Bootstrap ``count`` replicas with stacked warm-up rounds.

        Replica ``r`` draws its initial caches and every warm-up round
        from ``rngs[r]`` exactly as ``VectorizedNewscastOverlay.bootstrap``
        would, so each adopted overlay is bit-identical to a standalone
        bootstrap from the same stream — only the warm-up kernel work is
        fused across replicas.
        """
        if len(rngs) != count:
            raise MembershipError("need one bootstrap stream per replica")
        overlays = [
            VectorizedNewscastOverlay.bootstrap(
                size, cache_size, rng, warmup_cycles=0
            )
            for rng in rngs
        ]
        block = cls(overlays)
        for _ in range(max(0, int(warmup_cycles))):
            block.after_cycle_stacked(list(zip(overlays, rngs)))
        return block

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> int:
        """Number of adopted overlays."""
        return len(self._overlays)

    @property
    def stride(self) -> int:
        """Block rows reserved per replica."""
        return self._stride

    def overlay(self, replica: int) -> "VectorizedNewscastOverlay":
        """The adopted overlay of one replica."""
        return self._overlays[replica]

    def views(self) -> List["VectorizedNewscastOverlay"]:
        """All adopted overlays, in replica order."""
        return list(self._overlays)

    def _attached(self, overlay: "VectorizedNewscastOverlay") -> bool:
        """Whether the overlay's matrices still live inside the block."""
        return (
            overlay._row_capacity == self._stride
            and np.shares_memory(overlay._packed, self._packed)
        )

    # ------------------------------------------------------------------
    # The stacked maintenance round
    # ------------------------------------------------------------------
    def after_cycle_stacked(
        self,
        pairs: Sequence[tuple],
    ) -> None:
        """Run one maintenance round for every ``(overlay, rng)`` pair.

        Peer draws come from each replica's own stream (bit-identical to
        calling ``overlay.after_cycle(rng)`` one by one); the conflict
        scheduling and the packed merges run once over the stacked rows.
        """
        stacked_initiators = []
        stacked_peers = []
        lead = None
        for overlay, rng in pairs:
            if not self._attached(overlay):
                # Detached (grew beyond its slice): private maintenance.
                overlay.after_cycle(rng)
                continue
            replica = overlay.block_index
            initiators, peer_rows = overlay._draw_maintenance_round(rng)
            if lead is None:
                lead = overlay
            elif overlay._clock != lead._clock:
                # Clocks diverged (caller drove an overlay on its own);
                # the shared `now` stamp would be wrong — run privately.
                overlay._apply_maintenance_round(initiators, peer_rows)
                continue
            base = replica * self._stride
            if initiators.size:
                stacked_initiators.append(initiators + base)
                stacked_peers.append(peer_rows + base)
        if not stacked_initiators:
            return
        initiators = np.concatenate(stacked_initiators)
        peer_rows = np.concatenate(stacked_peers)
        rounds = ordered_conflict_rounds(
            initiators, peer_rows, self._scratch, track_positions=False
        )
        # Attached overlays share the base, whichever draw last slid it.
        now = lead._clock - lead._ts_base
        _apply_rounds(self._packed, self._id_by_row, rounds, now, self._cache_size)
        for overlay, _ in pairs:
            if self._attached(overlay):
                overlay._refresh_counts()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedNewscastBlock(replicas={len(self._overlays)}, "
            f"stride={self._stride}, c={self._cache_size})"
        )


class VectorizedNewscastOverlay(OverlayProvider):
    """NEWSCAST maintained as struct-of-arrays matrices.

    A drop-in for :class:`~repro.newscast.protocol.NewscastOverlay` whose
    peer draw and maintenance round are array passes.  Node identifiers
    must stay below :data:`MAX_NODE_ID`.

    Membership churn is wired through *row recycling*: every node owns
    one matrix row, rows of removed nodes go to a free list and are
    reused for joiners, and a swap-remove alive-row list gives O(1)
    membership updates and O(1) uniform contact sampling — so
    ``ChurnModel``, crash models and epoch restarts drive this overlay
    through the exact same ``on_node_added`` / ``on_node_removed`` API
    as every other overlay, without the matrices ever growing beyond
    the peak live population.
    """

    def __init__(self, cache_size: int, rng: RandomSource) -> None:
        require_positive(cache_size, "cache_size")
        self._cache_size = int(cache_size)
        self._rng = rng
        self._clock = 0
        self._ts_base = 0
        self._widened_at: Optional[int] = None
        self._reachability = None
        self._reachability_round = 0
        self.name = f"newscast-array(c={cache_size})"
        #: Number of NEWSCAST exchanges performed in the most recent cycle.
        self.last_cycle_exchanges = 0
        #: The :class:`ReplicatedNewscastBlock` this overlay's matrices
        #: live in (plus this overlay's replica position), or ``None``
        #: for a standalone overlay.  Set by the block on adoption; the
        #: replicated engine uses it to fuse the maintenance rounds of
        #: co-located replicas.
        self.maintenance_block: Optional["ReplicatedNewscastBlock"] = None
        self.block_index = -1

        self._row_capacity = 0
        self._packed = np.empty((0, self._cache_size), dtype=np.int32)
        self._counts = np.empty(0, dtype=np.int64)
        self._id_by_row = np.empty(0, dtype=np.int64)
        self._row_pos = np.empty(0, dtype=np.int64)
        self._alive_rows = np.empty(0, dtype=np.int64)
        self._alive_count = 0
        self._free_rows: List[int] = []
        self._row_by_id = np.empty(0, dtype=np.int64)
        self._scratch = conflict_scratch(0)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls,
        size: int,
        cache_size: int,
        rng: RandomSource,
        warmup_cycles: int = 5,
    ) -> "VectorizedNewscastOverlay":
        """Create an overlay of ``size`` nodes with warmed-up caches.

        Mirrors :meth:`NewscastOverlay.bootstrap`: every node starts with
        the same ``min(cache_size, size - 1)`` distinct uniformly random
        peers at timestamp 0 (one ``sample_distinct_peers`` draw), then
        ``warmup_cycles`` maintenance rounds run so the caches resemble
        the protocol's steady state.
        """
        require_positive(size, "size")
        if size - 1 > MAX_NODE_ID:
            raise MembershipError(
                f"array-native NEWSCAST supports node ids up to {MAX_NODE_ID}"
            )
        overlay = cls(cache_size, rng)
        fill = min(cache_size, size - 1)
        # Sampling first keeps the sampler's scratch and the matrix from
        # being alive together.
        peers = sample_distinct_peers(size, fill, rng.generator) if fill else None
        overlay._grow_rows(size)
        overlay._row_by_id = np.full(max(size, 1), -1, dtype=np.int64)
        rows = np.arange(size, dtype=np.int64)
        overlay._row_by_id[:size] = rows
        overlay._id_by_row[:size] = rows
        overlay._row_pos[:size] = rows
        overlay._alive_rows[:size] = rows
        overlay._alive_count = size

        if fill:
            # Timestamp 0 packs to the peer id itself; the sampler's rows
            # are ascending, and freshest-first means by peer id descending.
            overlay._packed[:size, :fill] = peers[:, ::-1]
            del peers
        overlay._counts[:size] = fill
        for _ in range(max(0, int(warmup_cycles))):
            overlay.after_cycle(rng)
        return overlay

    # ------------------------------------------------------------------
    # OverlayProvider interface
    # ------------------------------------------------------------------
    def node_ids(self) -> List[int]:
        ids = self._id_by_row[self._alive_rows[: self._alive_count]]
        return np.sort(ids).tolist()

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
        draws += rows * self._cache_size
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
        self._row_by_id[node_id] = -1
        self._id_by_row[row] = -1
        self._packed[row] = _EMPTY
        self._counts[row] = 0
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
        if contact_row >= 0:
            contact_id = int(self._id_by_row[contact_row])
            now_packed = (self._clock - self._ts_base) << ID_BITS
            # The joining node learns the contact plus the contact's view
            # (minus any stale descriptor of itself).
            pool = np.concatenate(
                (self._packed[contact_row], [now_packed | contact_id])
            )
            pool[(pool & MAX_NODE_ID) == node_id] = _EMPTY
            pool[::-1].sort()
            self._packed[row] = pool[: self._cache_size]
            self._counts[row] = int(np.count_nonzero(self._packed[row] >= 0))
            # The contact also hears about the new node right away.
            contact_pool = np.concatenate(
                (self._packed[contact_row], [now_packed | node_id])
            )
            contact_pool[::-1].sort()
            self._packed[contact_row] = contact_pool[: self._cache_size]
            self._counts[contact_row] = int(
                np.count_nonzero(self._packed[contact_row] >= 0)
            )

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
        :func:`~repro.simulator.sampling.ordered_conflict_rounds`.
        """
        initiators, peer_rows = self._draw_maintenance_round(rng)
        self._apply_maintenance_round(initiators, peer_rows)

    def _draw_maintenance_round(
        self, rng: RandomSource
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the clock and draw one round's exchange endpoints.

        This is the stream-consuming half of :meth:`after_cycle`, kept
        separate so :class:`ReplicatedNewscastBlock` can draw every
        replica's round from its own stream and then apply all rounds as
        one stacked pass.  Returns ``(initiator_rows, peer_rows)`` of
        the usable exchanges (empty arrays when nobody can gossip).
        """
        self._clock += 1
        if (self._clock - self._ts_base) >> _timestamp_bits(self._packed.dtype):
            self._slide_base()
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
        draws += initiators * self._cache_size
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

    def _apply_maintenance_round(
        self, initiators: np.ndarray, peer_rows: np.ndarray
    ) -> None:
        """Apply one drawn maintenance round to this overlay's own rows."""
        if initiators.size == 0:
            return
        if self._scratch.size < self._row_capacity:
            self._scratch = conflict_scratch(self._row_capacity)
        rounds = ordered_conflict_rounds(
            initiators, peer_rows, self._scratch, track_positions=False
        )
        now = self._clock - self._ts_base
        _apply_rounds(self._packed, self._id_by_row, rounds, now, self._cache_size)
        self._refresh_counts()

    def _refresh_counts(self) -> None:
        """Recount the live rows, once per round (merges never read counts)."""
        # Valid entries come first, so a valid last slot means a full row;
        # only the short rows are gathered and counted.
        rows = self._alive_rows[: self._alive_count]
        self._counts[rows] = self._cache_size
        short = rows[self._packed[:, -1][rows] < 0]
        self._counts[short] = np.count_nonzero(self._packed[short] >= 0, axis=1)

    # ------------------------------------------------------------------
    # The sliding timestamp base (module docstring, "Representation")
    # ------------------------------------------------------------------
    def _slide_base(self) -> None:
        """Make ``clock - base`` fit the packing again: slide, else widen."""
        block = self.maintenance_block
        attached = block is not None and block._attached(self)
        members = [o for o in block._overlays if block._attached(o)] if attached else [self]
        oldest = min(member._oldest_live() for member in members)
        if (self._clock - self._ts_base - oldest) >> _timestamp_bits(self._packed.dtype):
            if attached:
                block._packed = block._packed.astype(np.int64)
                for member in members:
                    first = member.block_index * block._stride
                    rows = block._packed[first : first + block._stride]
                    member._rehome(rows, self._clock)
            else:
                self._rehome(self._packed.astype(np.int64), self._clock)
        for member in members:
            member._shift_base(oldest)

    def _oldest_live(self) -> int:
        """Oldest stored timestamp above the base (the clock if none is stored)."""
        # Viewed unsigned, the empty slots (-1) are the largest values.
        unsigned = self._packed.view(f"u{self._packed.itemsize}")
        oldest = int(unsigned.min(initial=np.iinfo(unsigned.dtype).max)) >> ID_BITS
        return min(self._clock - self._ts_base, oldest)

    def _shift_base(self, delta: int) -> None:
        """Move the base by ``delta`` and every stored timestamp with it."""
        # An entry-less matrix has nothing to move (and slides by the whole
        # clock span, which need not fit the dtype).
        if delta and (valid := self._packed >= 0).any():
            np.subtract(self._packed, delta << ID_BITS, out=self._packed, where=valid)
        self._ts_base += delta

    def _rehome(self, packed: np.ndarray, clock: int) -> None:
        """Adopt ``packed`` as the cache matrix; a dtype change is a widening."""
        if packed.dtype != self._packed.dtype:
            self._widened_at = clock
        self._packed = packed

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and analysis
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        """The configured cache capacity ``c``."""
        return self._cache_size

    @property
    def clock(self) -> float:
        """The overlay's logical clock (one tick per NEWSCAST cycle)."""
        return float(self._clock)

    @property
    def packing(self) -> str:
        """Dtype of the cache matrix: ``"int32"``, or ``"int64"`` once widened."""
        return self._packed.dtype.name

    @property
    def widened_at(self) -> Optional[int]:
        """Clock of the one-way widening to int64, ``None`` while int32."""
        return self._widened_at

    def cache_of(self, node_id: int) -> NewscastCache:
        """The cache of ``node_id`` as a ``NewscastCache`` (for tests)."""
        row = self._row_of(node_id)
        if row < 0:
            raise MembershipError(f"unknown node {node_id}")
        entries = unpack_entries(self._packed[row], self._ts_base)
        return NewscastCache(self._cache_size, entries)

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
        counts: Dict[int, int] = {int(self._id_by_row[row]): 0 for row in rows}
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
        if node_id >= self._row_by_id.size:
            grown = np.full(max(node_id + 1, 2 * self._row_by_id.size), -1, dtype=np.int64)
            grown[: self._row_by_id.size] = self._row_by_id
            self._row_by_id = grown
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            if self._alive_count >= self._row_capacity:
                self._grow_rows(max(2 * self._row_capacity, self._alive_count + 1))
            row = self._alive_count
        self._row_by_id[node_id] = row
        self._id_by_row[row] = node_id
        self._packed[row] = _EMPTY
        self._counts[row] = 0
        self._alive_rows[self._alive_count] = row
        self._row_pos[row] = self._alive_count
        self._alive_count += 1
        return row

    def _grow_rows(self, new_capacity: int) -> None:
        old = self._row_capacity
        if new_capacity <= old:
            return
        packed = np.full((new_capacity, self._cache_size), _EMPTY, self._packed.dtype)
        packed[:old] = self._packed
        self._packed = packed
        for name in ("_counts", "_id_by_row", "_row_pos", "_alive_rows"):
            grown = np.full(new_capacity, -1, dtype=np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        self._counts[old:] = 0
        self._row_capacity = new_capacity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorizedNewscastOverlay(c={self._cache_size}, nodes={self._alive_count})"
        )
