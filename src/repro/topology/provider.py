"""The overlay interface the simulation engines drive.

The aggregation protocol only needs one service from the overlay: *give me
a random neighbour to gossip with*.  The simulation engines additionally
inform the overlay about node arrivals and departures and give it a chance
to run its own maintenance once per cycle (which is how the NEWSCAST
membership protocol is plugged in).

The interface lives in its own module so that both the array store of the
static overlays (:mod:`repro.topology.replicated`) and
:class:`~repro.topology.base.StaticTopology`, which is built on that store,
can import it; :mod:`repro.topology.base` re-exports it under its
established path.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

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
