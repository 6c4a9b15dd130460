"""Regular ring lattice, the substrate of the Watts–Strogatz model.

The lattice connects node ``i`` to its ``k/2`` nearest neighbours on each
side of a ring, yielding a k-regular, highly clustered, high-diameter
graph.  With no rewiring (β = 0) this is the worst topology for gossip
averaging examined in the paper, which makes it a useful extreme point for
tests and ablations.

The graph is built in closed form: the ``N * k/2`` edges
``(i, (i + o) mod N)`` for ``o = 1 .. k/2`` go straight into block rows
through :func:`~repro.topology.replicated.rows_from_edges`, so no Python
container is built per node or per edge.
"""

from __future__ import annotations

import numpy as np

from ..common.validation import require, require_positive
from .base import StaticTopology
from .replicated import rows_from_edges

__all__ = ["ring_lattice_topology", "ring_lattice_edges"]


def ring_lattice_edges(size: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice's ``size * degree/2`` edges as two flat int64 arrays.

    Edge ``i * degree/2 + (o - 1)`` is ``(i, (i + o) mod size)``: owner-major,
    offsets ascending.  Watts–Strogatz follows this order: edge ``i``
    owns mask bit ``i``, and a lower index wins a repeated draw.
    """
    targets = _lattice_targets(size, degree)
    return np.repeat(np.arange(size, dtype=np.int64), degree // 2), targets.reshape(-1)


def _lattice_targets(size: int, degree: int) -> np.ndarray:
    """The ``(size, degree/2)`` targets: row ``i`` holds ``(i + o) mod size``, ``o = 1 ..``."""
    targets = np.arange(size, dtype=np.int64)[:, None] + np.arange(
        1, degree // 2 + 1, dtype=np.int64
    )
    np.remainder(targets, size, out=targets)
    return targets


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
    # The owner column broadcasts against the target matrix, and the
    # targets go in as a temporary the kernel frees before its sort.
    neighbours, degrees = rows_from_edges(
        size, np.arange(size, dtype=np.int64)[:, None], _lattice_targets(size, degree)
    )
    return StaticTopology.from_rows(
        neighbours, degrees, name=f"ring-lattice(k={degree})"
    )
