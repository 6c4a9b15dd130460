"""Regular ring lattice, the substrate of the Watts–Strogatz model.

The lattice connects node ``i`` to its ``k/2`` nearest neighbours on each
side of a ring, yielding a k-regular, highly clustered, high-diameter
graph.  With no rewiring (β = 0) this is the worst topology for gossip
averaging examined in the paper, which makes it a useful extreme point for
tests and ablations.
"""

from __future__ import annotations

from typing import Dict, Set

from ..common.validation import require, require_positive
from .base import StaticTopology

__all__ = ["ring_lattice_topology"]


def ring_lattice_topology(size: int, degree: int) -> StaticTopology:
    """Build a ring lattice with ``degree`` neighbours per node.

    Parameters
    ----------
    size:
        Number of nodes, arranged on a ring ``0 .. size-1``.
    degree:
        Target degree.  Must be even (``degree/2`` neighbours per side) and
        smaller than ``size``.
    """
    require_positive(size, "size")
    require_positive(degree, "degree")
    require(degree % 2 == 0, f"degree must be even for a ring lattice, got {degree}")
    require(degree < size, f"degree ({degree}) must be smaller than size ({size})")

    half = degree // 2
    adjacency: Dict[int, Set[int]] = {node: set() for node in range(size)}
    for node in range(size):
        for offset in range(1, half + 1):
            neighbour = (node + offset) % size
            adjacency[node].add(neighbour)
            adjacency[neighbour].add(node)
    return StaticTopology(adjacency, name=f"ring-lattice(k={degree})")
