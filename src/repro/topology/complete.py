"""The complete (fully connected) overlay.

In the complete topology every node knows every other node, so peer
selection is a uniform draw over all other live nodes.  Materialising the
full adjacency would cost O(N^2) memory, so this overlay is implemented
directly against the :class:`~repro.topology.base.OverlayProvider`
interface: one alive flag per node ``0 .. size-1``, no Python container
per node.  Like every static overlay its membership is fixed: nodes
crash, none joins.  :func:`complete_topology` always builds it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..common.errors import TopologyError
from ..common.validation import require_positive
from .base import OverlayProvider

__all__ = ["CompleteOverlay", "complete_topology"]


class CompleteOverlay(OverlayProvider):
    """Fully connected overlay with O(N) memory.

    Parameters
    ----------
    size:
        Number of nodes (identifiers ``0 .. size-1``).
    """

    def __init__(self, size: int) -> None:
        require_positive(size, "size")
        self._alive = np.ones(size, dtype=bool)
        self._count = size
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.name = "complete"

    def _node_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ascending live ids and the id → position table (``-1`` for crashed ids)."""
        if self._arrays is None:
            ids = np.flatnonzero(self._alive)
            position_of = np.cumsum(self._alive) - 1
            position_of[~self._alive] = -1
            self._arrays = (ids, position_of)
        return self._arrays

    # OverlayProvider ----------------------------------------------------
    def node_ids(self) -> np.ndarray:
        """Identifiers of all current nodes, ascending (a read-only int64 view)."""
        ids = self._node_arrays()[0].view()
        ids.flags.writeable = False
        return ids

    def neighbors(self, node_id: int) -> Sequence[int]:
        if not self.contains(node_id):
            raise TopologyError(f"unknown node {node_id}")
        ids = self._node_arrays()[0]
        return tuple(ids[ids != node_id].tolist())

    def select_peers_batch(
        self, node_ids: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Draw one uniform other-node for every node in ``node_ids`` at once.

        Uses the classic skip-self trick: draw a position in ``[0, n-1)``
        and shift it past the caller's own position, which is exactly a
        uniform draw over the ``n - 1`` other nodes — no rejection loop.
        ``-1`` marks negative, unknown and removed identifiers, which
        consume no randomness.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        peers = np.full(node_ids.size, -1, dtype=np.int64)
        if self._count <= 1 or node_ids.size == 0:
            return peers
        ids, position_of = self._node_arrays()
        in_table = (node_ids >= 0) & (node_ids < position_of.size)
        positions = np.where(in_table, position_of[np.where(in_table, node_ids, 0)], -1)
        known = positions >= 0
        positions = positions[known]
        draws = generator.integers(0, ids.size - 1, size=positions.size)
        peers[known] = ids[draws + (draws >= positions)]
        return peers

    def on_node_removed(self, node_id: int) -> None:
        if self.contains(node_id):
            self._alive[node_id] = False
            self._count -= 1
            self._arrays = None

    def size(self) -> int:
        return self._count

    def contains(self, node_id: int) -> bool:
        return 0 <= node_id < self._alive.size and bool(self._alive[node_id])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompleteOverlay(nodes={self._count})"


def complete_topology(size: int) -> OverlayProvider:
    """Build the memory-efficient complete overlay of ``size`` nodes."""
    return CompleteOverlay(size)
