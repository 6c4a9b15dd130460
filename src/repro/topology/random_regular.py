"""Random overlay with a fixed out-degree per node.

The paper's "random" topology gives every node a neighbour set filled with
a uniform random sample of the peers ("each node knows exactly 20
neighbors").  The natural reading is a random *directed* k-out graph whose
edges are then used bidirectionally; we build exactly that and expose it as
an undirected :class:`~repro.topology.base.StaticTopology`, which gives an
average degree of roughly ``2k`` and, crucially, the near-ideal convergence
factor of 1/(2√e) reported in the paper.
"""

from __future__ import annotations

import numpy as np

from ..common.rng import RandomSource
from .base import StaticTopology
from .replicated import draw_k_out_peers, rows_from_edges

__all__ = ["random_k_out_topology"]


def random_k_out_topology(size: int, degree: int, rng: RandomSource) -> StaticTopology:
    """Build the paper's random overlay: each node samples ``degree`` peers.

    The draws come from the batched
    :func:`~repro.topology.replicated.draw_k_out_peers` sampler and go
    straight into block rows through
    :func:`~repro.topology.replicated.rows_from_edges` — the same two
    steps the replicated block topology takes — so a serial sweep and a
    replica-batched sweep build the *same* graphs from the same seeds,
    and neither assembles a Python set along the way.

    Parameters
    ----------
    size:
        Number of nodes (identifiers ``0 .. size-1``).
    degree:
        Number of outgoing neighbour links sampled per node (``k``); the
        resulting undirected graph has average degree close to ``2k``.
    rng:
        Randomness source.
    """
    owners = np.arange(size, dtype=np.int64)[:, None]
    neighbours, degrees = rows_from_edges(
        size, owners, draw_k_out_peers(size, degree, rng)
    )
    return StaticTopology.from_rows(neighbours, degrees, name=f"random(k={degree})")
