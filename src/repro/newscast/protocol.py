"""The NEWSCAST membership protocol as an overlay provider (dict-based parity oracle).

Contract: :class:`NewscastOverlay` is the reference implementation the
array-native :class:`~repro.newscast.vectorized_cache.VectorizedNewscastOverlay`
is tested against, not a production path.  ``build_overlay`` builds it
only for ``TopologySpec("newscast", params={"vectorized": False})``; no
figure, example or benchmark workload does.  It stays because
``tests/test_newscast_vectorized.py::TestOverlayDistributionEquivalence``
compares the array overlay's convergence factors with this one's.  It
answers the same peer-sampling contract as every other overlay, so it
runs on both cycle engines and in stacked repeats alike.

NEWSCAST maintains, at every node, a small cache of recently-heard-of peers
(see :mod:`repro.newscast.cache`).  Once per cycle every live node picks a
random peer from its cache and the two swap and merge caches, each keeping
the ``c`` freshest descriptors.  Nodes keep re-injecting fresh descriptors
of themselves, so information about crashed nodes ages out and the overlay
continuously re-randomises itself — which is exactly what the aggregation
protocol needs from its underlying topology.

The class implements :class:`~repro.topology.base.OverlayProvider`:

* ``select_peers_batch`` draws a random cache entry for the *aggregation*
  protocol to gossip with (the returned peer may have crashed, in which
  case the aggregation exchange simply times out and is skipped — the
  behaviour the paper describes);
* ``after_cycle`` runs one round of NEWSCAST exchanges, which is how the
  cycle-driven simulator drives membership maintenance alongside
  aggregation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from ..common.errors import MembershipError
from ..common.rng import RandomSource
from ..common.validation import require, require_positive
from ..topology.base import OverlayProvider
from ..topology.partitions import effective_component_count
from ..topology.replicated import sample_distinct_peers
from .cache import CacheEntry, NewscastCache

__all__ = ["NewscastOverlay"]

ORACLE = "the dict NEWSCAST, which the array overlay must match cache for cache"


class NewscastOverlay(OverlayProvider):
    """Dynamic overlay maintained by the NEWSCAST protocol.

    Parameters
    ----------
    cache_size:
        The cache capacity ``c`` (the paper uses ``c = 30`` for its
        aggregation experiments and studies ``c ∈ [2, 50]`` in Fig. 4b).
    rng:
        Randomness source used for bootstrap and exchanges.
    """

    def __init__(self, cache_size: int, rng: RandomSource) -> None:
        require_positive(cache_size, "cache_size")
        self._cache_size = int(cache_size)
        self._rng = rng
        self._caches: Dict[int, NewscastCache] = {}
        self._alive: Set[int] = set()
        self._clock: float = 0.0
        self._reachability = None
        self._reachability_round = 0
        self.name = f"newscast(c={cache_size})"
        #: Number of NEWSCAST exchanges performed in the most recent cycle.
        self.last_cycle_exchanges = 0

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
    ) -> "NewscastOverlay":
        """Create an overlay of ``size`` nodes with warmed-up caches.

        Nodes are initialised with ``min(cache_size, size - 1)`` distinct
        uniformly random peers (timestamp 0), drawn by
        :func:`~repro.topology.replicated.sample_distinct_peers` exactly as
        :meth:`VectorizedNewscastOverlay.bootstrap` draws them, and then
        ``warmup_cycles`` NEWSCAST rounds are run so the cache contents
        resemble the steady state of the protocol before aggregation
        starts, as in the paper's experiments.
        """
        require_positive(size, "size")
        overlay = cls(cache_size, rng)
        for node in range(size):
            overlay._alive.add(node)
            overlay._caches[node] = NewscastCache(cache_size)
        fill = min(cache_size, size - 1)
        if fill:
            peers = sample_distinct_peers(size, fill, rng.generator)
            for node, row in enumerate(peers.tolist()):
                cache = overlay._caches[node]
                for peer in row:
                    cache.insert(CacheEntry(timestamp=0.0, peer_id=peer))
        for _ in range(max(0, warmup_cycles)):
            overlay.after_cycle(rng)
        return overlay

    # ------------------------------------------------------------------
    # OverlayProvider interface
    # ------------------------------------------------------------------
    def node_ids(self) -> np.ndarray:
        """Identifiers of all current nodes, ascending (int64)."""
        return np.array(sorted(self._alive), dtype=np.int64)

    def neighbors(self, node_id: int) -> Sequence[int]:
        cache = self._caches.get(node_id)
        if cache is None:
            raise MembershipError(f"unknown node {node_id}")
        return tuple(cache.peer_ids())

    def select_peers_batch(
        self, node_ids: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Draw one random cache entry for every node in ``node_ids``.

        A Python loop over the caches: one ``integers(0, len(cache))``
        call per known node with a non-empty cache, in order.  Unknown
        ids and empty caches get ``-1`` and consume no randomness.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        peers = np.full(ids.size, -1, dtype=np.int64)
        for position, node in enumerate(ids.tolist()):
            cache = self._caches.get(node)
            if cache is not None and not cache.is_empty():
                candidates = cache.peer_ids()
                peers[position] = candidates[int(generator.integers(0, len(candidates)))]
        return peers

    def contains(self, node_id: int) -> bool:
        """O(1) membership check (the base fallback scans all node ids)."""
        return node_id in self._alive

    def on_node_removed(self, node_id: int) -> None:
        # Crashed nodes stop exchanging; their descriptors age out of other
        # caches naturally.  We only drop the node's own state.
        self._alive.discard(node_id)
        self._caches.pop(node_id, None)

    def on_node_added(self, node_id: int, rng: RandomSource) -> None:
        if node_id < 0:
            raise MembershipError(f"node identifiers must be non-negative, got {node_id}")
        if node_id in self._alive:
            raise MembershipError(f"node {node_id} already exists")
        self._alive.add(node_id)
        cache = NewscastCache(self._cache_size)
        contact = self._random_live_node(exclude=node_id, rng=rng)
        if contact is not None:
            # The joining node learns the contact plus the contact's view.
            cache.insert(CacheEntry(timestamp=self._clock, peer_id=contact))
            for entry in self._caches[contact].entries():
                if entry.peer_id != node_id:
                    cache.insert(entry)
            # The contact also hears about the new node right away.
            self._caches[contact].insert(CacheEntry(timestamp=self._clock, peer_id=node_id))
        self._caches[node_id] = cache

    def set_reachability(self, model) -> None:
        """Constrain membership exchanges by a pairwise reachability model.

        NEWSCAST gossip rides the same links as aggregation, so a
        partition that severs aggregation exchanges must sever membership
        maintenance too — that is what makes the overlay itself split into
        disconnected components during an outage and re-merge after it
        heals.  The model's cycle indices are counted from the moment of
        attachment (1-based, like engine cycles), *not* from the overlay's
        own clock: bootstrap warm-up rounds advance ``_clock`` before the
        simulation starts, and outage windows are expressed in simulation
        cycles.
        """
        self._reachability = model
        self._reachability_round = 0

    def after_cycle(self, rng: RandomSource) -> None:
        """Run one round of NEWSCAST exchanges over all live nodes."""
        self._clock += 1.0
        self._reachability_round += 1
        exchanges = 0
        alive = list(self._alive)
        order = [alive[int(i)] for i in rng.generator.permutation(len(alive))]
        for node in order:
            cache = self._caches.get(node)
            if cache is None:
                continue
            peer = cache.random_peer(rng)
            if peer is None:
                continue
            if peer not in self._alive:
                # The selected peer has crashed: the exchange times out and
                # nothing is merged.  The stale entry will be displaced by
                # fresher news in subsequent merges.
                continue
            if self._reachability is not None and self._reachability.blocks(
                node, peer, self._reachability_round
            ):
                # Unreachable peer: the membership exchange is dropped just
                # like an aggregation exchange over the same broken link.
                continue
            self._exchange(node, peer)
            exchanges += 1
        self.last_cycle_exchanges = exchanges

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _exchange(self, initiator: int, responder: int) -> None:
        cache_a = self._caches[initiator]
        cache_b = self._caches[responder]
        merged_a = cache_a.merged_with(cache_b, own_id=initiator, other_id=responder, now=self._clock)
        merged_b = cache_b.merged_with(cache_a, own_id=responder, other_id=initiator, now=self._clock)
        self._caches[initiator] = merged_a
        self._caches[responder] = merged_b

    def _random_live_node(self, exclude: int, rng: RandomSource) -> Optional[int]:
        candidates = [node for node in self._alive if node != exclude]
        if not candidates:
            return None
        return candidates[rng.choice_index(len(candidates))]

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
        return self._clock

    def cache_of(self, node_id: int) -> NewscastCache:
        """The (live) cache of ``node_id`` — mainly for tests and analysis."""
        cache = self._caches.get(node_id)
        if cache is None:
            raise MembershipError(f"unknown node {node_id}")
        return cache

    def stale_reference_fraction(self) -> float:
        """Fraction of cache entries across live nodes that point to dead peers.

        A low value indicates the self-repair property is working.
        """
        total = 0
        stale = 0
        for node in self._alive:
            for peer in self._caches[node].peer_ids():
                total += 1
                if peer not in self._alive:
                    stale += 1
        if total == 0:
            return 0.0
        return stale / total

    def in_degree_distribution(self) -> Dict[int, int]:
        """How many live caches reference each live node."""
        counts: Dict[int, int] = {node: 0 for node in self._alive}
        for node in self._alive:
            for peer in self._caches[node].peer_ids():
                if peer in counts:
                    counts[peer] += 1
        return counts

    def is_weakly_connected(self) -> bool:
        """Whether the directed cache graph is connected when undirected."""
        return effective_component_count(self) <= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NewscastOverlay(c={self._cache_size}, nodes={len(self._alive)})"
