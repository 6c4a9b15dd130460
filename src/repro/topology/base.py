"""Overlay abstractions shared by static topologies and NEWSCAST.

Two families of overlays implement the
:class:`~repro.topology.provider.OverlayProvider` interface (re-exported
here, its established import path):

* :class:`StaticTopology` — a fixed graph over nodes ``0 .. N-1``.  The
  concrete generators in this package (random k-out, ring lattice,
  Watts–Strogatz, Barabási–Albert) all build instances of this class
  through :meth:`StaticTopology.from_rows`.  It keeps no Python
  containers: it is the one-replica view of a
  :class:`~repro.topology.replicated.ReplicatedStaticBlock`, the ragged
  int32 row store every static overlay lives in (memory: 4 bytes per
  stored neighbour, each edge stored once per endpoint, plus a per-row
  offset and degree of 8 bytes each and an alive flag; no max-degree
  term, so a scale-free graph's hubs cost only their own rows).  Its
  membership is fixed: nodes crash, none joins.
* :class:`repro.newscast.VectorizedNewscastOverlay` — a dynamic overlay
  maintained by the NEWSCAST epidemic membership protocol (and its
  dict-based parity oracle :class:`repro.newscast.NewscastOverlay`), the
  only overlays that take joins.
"""

from __future__ import annotations

import numpy as np

from .provider import OverlayProvider
from .replicated import ReplicatedStaticBlock, StaticBlockView

__all__ = ["OverlayProvider", "StaticTopology"]


class StaticTopology(StaticBlockView):
    """A fixed overlay graph: the view of a one-replica block of its own.

    The graph is undirected: an edge ``(a, b)`` makes ``b`` a neighbour of
    ``a`` and vice versa.  Node removal deletes the node together with its
    incident edges; this models the "oracle" overlay used by the paper for
    static-topology experiments, where a crashed node simply disappears
    from every neighbour list.  Peer selection, crashes, ``node_ids()``
    (ascending) and ``neighbors()`` (ascending) are the
    :class:`~repro.topology.replicated.StaticBlockView` ones, so a
    standalone topology and a replica of a stacked run behave alike draw
    for draw.
    """

    @classmethod
    def from_rows(
        cls, neighbours: np.ndarray, degrees: np.ndarray, name: str = "static"
    ) -> "StaticTopology":
        """Topology over prepared ragged rows; node ``u`` owns row ``u``.

        ``neighbours`` and ``degrees`` are what
        :func:`~repro.topology.replicated.rows_from_edges` returns for the
        dense identifier space ``0 .. len(degrees) - 1``.
        """
        return cls(ReplicatedStaticBlock(neighbours, degrees, degrees.size, 1, name), 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticTopology(name={self.name!r}, nodes={self.size()})"
