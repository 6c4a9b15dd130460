"""NEWSCAST neighbour caches.

Every NEWSCAST node maintains a small, fixed-size cache of *news items*:
``(peer identifier, timestamp)`` pairs.  During an exchange the two peers
merge their caches (together with fresh descriptors of themselves) and
keep the ``c`` freshest entries.  Because a crashed node stops injecting
fresh descriptors of itself, its entries age out of every cache and the
overlay "repairs" itself — the property the paper relies on for robustness.

Contract: :class:`NewscastCache` is the scalar parity oracle of the
batched kernel :func:`~repro.newscast.vectorized_cache.merge_packed_pairs`,
which must reproduce :meth:`NewscastCache.merged_with` bit for bit
(``tests/test_newscast_vectorized.py::TestMergeKernelProperty``).  Its only
other user is the dict-based :class:`~repro.newscast.protocol.NewscastOverlay`,
itself an oracle; default runs keep their caches in the packed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..common.rng import RandomSource
from ..common.validation import require_positive

__all__ = ["CacheEntry", "NewscastCache"]


@dataclass(frozen=True, order=True)
class CacheEntry:
    """A single news item: a peer descriptor with the time it was created.

    Ordering is by ``(timestamp, peer_id)`` so sorting a list of entries
    naturally ranks them from oldest to freshest with deterministic
    tie-breaking.
    """

    timestamp: float
    peer_id: int

    def is_fresher_than(self, other: "CacheEntry") -> bool:
        """Whether this entry should win over ``other`` for the same peer."""
        return self.timestamp > other.timestamp


class NewscastCache:
    """Fixed-capacity cache of the freshest peer descriptors.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept (the paper's parameter ``c``).
    entries:
        Optional initial entries; only the freshest per peer are retained
        and the cache is trimmed to ``capacity``.
    """

    def __init__(self, capacity: int, entries: Iterable[CacheEntry] = ()) -> None:
        require_positive(capacity, "capacity")
        self._capacity = int(capacity)
        self._entries: Dict[int, CacheEntry] = {}
        for entry in entries:
            self.insert(entry)

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of entries retained."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._entries

    def peer_ids(self) -> List[int]:
        """Identifiers of all peers currently in the cache."""
        return list(self._entries.keys())

    def entries(self) -> List[CacheEntry]:
        """All entries, freshest first."""
        return sorted(self._entries.values(), reverse=True)

    def entry_for(self, peer_id: int) -> Optional[CacheEntry]:
        """The entry describing ``peer_id``, if present."""
        return self._entries.get(peer_id)

    def is_empty(self) -> bool:
        """Whether the cache holds no entries."""
        return not self._entries

    def oldest_timestamp(self) -> Optional[float]:
        """Timestamp of the oldest entry (``None`` when empty)."""
        if not self._entries:
            return None
        return min(entry.timestamp for entry in self._entries.values())

    def freshest_timestamp(self) -> Optional[float]:
        """Timestamp of the freshest entry (``None`` when empty)."""
        if not self._entries:
            return None
        return max(entry.timestamp for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, entry: CacheEntry) -> None:
        """Insert an entry, keeping only the freshest descriptor per peer.

        If the cache exceeds its capacity after the insert, the oldest
        entries are evicted.
        """
        existing = self._entries.get(entry.peer_id)
        if existing is not None and not entry.is_fresher_than(existing):
            return
        self._entries[entry.peer_id] = entry
        self._trim()

    def remove(self, peer_id: int) -> None:
        """Drop the entry for ``peer_id`` if present."""
        self._entries.pop(peer_id, None)

    def _trim(self) -> None:
        while len(self._entries) > self._capacity:
            oldest = min(self._entries.values())
            del self._entries[oldest.peer_id]

    # ------------------------------------------------------------------
    # NEWSCAST merge
    # ------------------------------------------------------------------
    def merged_with(
        self,
        other: "NewscastCache",
        own_id: int,
        other_id: int,
        now: float,
    ) -> "NewscastCache":
        """Return the cache this node keeps after exchanging with ``other``.

        Following the protocol, the union of the two caches plus fresh
        descriptors of both participants is formed, descriptors of the
        owner itself are excluded, and the ``c`` freshest remaining items
        are kept.

        Parameters
        ----------
        other:
            The cache received from the exchange partner.
        own_id:
            Identifier of the node that will own the merged cache.
        other_id:
            Identifier of the exchange partner.
        now:
            Current (logical or real) time, used to timestamp the fresh
            descriptors of the two participants.
        """
        pool: Dict[int, CacheEntry] = {}

        def consider(entry: CacheEntry) -> None:
            if entry.peer_id == own_id:
                return
            current = pool.get(entry.peer_id)
            if current is None or entry.is_fresher_than(current):
                pool[entry.peer_id] = entry

        for entry in self._entries.values():
            consider(entry)
        for entry in other._entries.values():
            consider(entry)
        consider(CacheEntry(timestamp=now, peer_id=other_id))

        freshest = sorted(pool.values(), reverse=True)[: self._capacity]
        return NewscastCache(self._capacity, freshest)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def random_peer(self, rng: RandomSource) -> Optional[int]:
        """Uniformly random peer identifier from the cache (``None`` if empty)."""
        ids = self.peer_ids()
        if not ids:
            return None
        return ids[rng.choice_index(len(ids))]

    def copy(self) -> "NewscastCache":
        """An independent copy of this cache."""
        return NewscastCache(self._capacity, self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NewscastCache(capacity={self._capacity}, size={len(self._entries)})"
