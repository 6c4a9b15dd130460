"""The overlay interface the simulation engines drive.

The aggregation protocol only needs one service from the overlay, the
paper's ``GETNEIGHBOR()``: *give me a random neighbour to gossip with*.
Every engine asks for it in one form only, the batched
:meth:`OverlayProvider.select_peers_batch` (one draw per initiator of a
cycle or window).  The simulation engines additionally inform the overlay
about node arrivals and departures and give it a chance to run its own
maintenance once per cycle (which is how the NEWSCAST membership protocol
is plugged in).

The interface lives in its own module so that both the array store of the
static overlays (:mod:`repro.topology.replicated`) and
:class:`~repro.topology.base.StaticTopology`, which is built on that store,
can import it; :mod:`repro.topology.base` re-exports it under its
established path.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from ..common.rng import RandomSource

__all__ = ["OverlayProvider"]


class OverlayProvider(abc.ABC):
    """Interface between the simulation engine and an overlay network."""

    @abc.abstractmethod
    def node_ids(self) -> List[int]:
        """Return the identifiers of all nodes currently in the overlay."""

    @abc.abstractmethod
    def neighbors(self, node_id: int) -> Sequence[int]:
        """Return the neighbour identifiers known by ``node_id``."""

    @abc.abstractmethod
    def select_peers_batch(
        self, node_ids: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Draw one uniformly random neighbour for every id in ``node_ids``.

        Returns an int64 array aligned with ``node_ids``.  ``-1`` means the
        node has no usable neighbour (or is unknown to the overlay) and its
        exchange is skipped, exactly as a timed-out exchange would be in
        the paper's protocol.  Unknown identifiers consume no randomness.
        """

    @abc.abstractmethod
    def on_node_removed(self, node_id: int) -> None:
        """Notify the overlay that a node has crashed or left."""

    @abc.abstractmethod
    def on_node_added(self, node_id: int, rng: RandomSource) -> None:
        """Notify the overlay that a new node joined (bootstrap it)."""

    def after_cycle(self, rng: RandomSource) -> None:
        """Hook run once per cycle for overlay maintenance (default: no-op)."""

    def set_reachability(self, model) -> None:
        """Constrain overlay maintenance by a reachability model (default: no-op)."""

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
