"""The complete (fully connected) overlay.

In the complete topology every node knows every other node, so peer
selection is a uniform draw over all other live nodes.  Materialising the
full adjacency would cost O(N^2) memory, so this overlay is implemented
directly against the :class:`~repro.topology.base.OverlayProvider`
interface with O(N) state; :func:`complete_topology` always builds it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..common.errors import TopologyError
from ..common.rng import RandomSource
from ..common.validation import require_positive
from .base import OverlayProvider

__all__ = ["CompleteOverlay", "complete_topology"]


class CompleteOverlay(OverlayProvider):
    """Fully connected overlay with O(N) memory.

    Parameters
    ----------
    size:
        Initial number of nodes (identifiers ``0 .. size-1``).
    """

    def __init__(self, size: int) -> None:
        require_positive(size, "size")
        self._nodes: Set[int] = set(range(size))
        self._node_list: List[int] = list(range(size))
        self._dirty = False
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.name = "complete"

    def _refresh(self) -> None:
        if self._dirty:
            self._node_list = sorted(self._nodes)
            self._dirty = False
            self._arrays = None

    def _node_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted node-id array and its id → position lookup table."""
        self._refresh()
        if self._arrays is None:
            ids = np.asarray(self._node_list, dtype=np.int64)
            capacity = int(ids.max()) + 1 if ids.size else 0
            position_of = np.full(capacity, -1, dtype=np.int64)
            position_of[ids] = np.arange(ids.size, dtype=np.int64)
            self._arrays = (ids, position_of)
        return self._arrays

    # OverlayProvider ----------------------------------------------------
    def node_ids(self) -> List[int]:
        self._refresh()
        return list(self._node_list)

    def neighbors(self, node_id: int) -> Sequence[int]:
        if node_id not in self._nodes:
            raise TopologyError(f"unknown node {node_id}")
        self._refresh()
        return tuple(node for node in self._node_list if node != node_id)

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
        if len(self._nodes) <= 1 or node_ids.size == 0:
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
        self._nodes.discard(node_id)
        self._dirty = True

    def on_node_added(self, node_id: int, rng: RandomSource) -> None:
        if node_id < 0:
            raise TopologyError(f"node identifiers must be non-negative, got {node_id}")
        if node_id in self._nodes:
            raise TopologyError(f"node {node_id} already exists")
        self._nodes.add(node_id)
        self._dirty = True

    def size(self) -> int:
        return len(self._nodes)

    def contains(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompleteOverlay(nodes={len(self._nodes)})"


def complete_topology(size: int) -> OverlayProvider:
    """Build the memory-efficient complete overlay of ``size`` nodes."""
    return CompleteOverlay(size)
