"""Random overlay with a fixed out-degree per node.

The paper's "random" topology gives every node a neighbour set filled with
a uniform random sample of the peers ("each node knows exactly 20
neighbors").  The natural reading is a random *directed* k-out graph whose
edges are then used bidirectionally; we build exactly that and expose it as
an undirected :class:`~repro.topology.base.StaticTopology`, which gives an
average degree of roughly ``2k`` and, crucially, the near-ideal convergence
factor of 1/(2√e) reported in the paper.

A strictly k-regular undirected variant (each node has exactly ``k``
neighbours) is also provided for completeness and for degree-sensitivity
experiments.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from ..common.errors import TopologyError
from ..common.rng import RandomSource
from ..common.validation import require, require_positive
from .base import StaticTopology
from .replicated import draw_k_out_peers, rows_from_edges

__all__ = ["random_k_out_topology", "random_regular_topology"]


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
    rows, degrees = rows_from_edges(size, owners, draw_k_out_peers(size, degree, rng))
    return StaticTopology.from_rows(rows, degrees, name=f"random(k={degree})")


def random_regular_topology(size: int, degree: int, rng: RandomSource, max_retries: int = 50) -> StaticTopology:
    """Build an (almost) k-regular undirected random graph.

    Uses the configuration-model pairing with retries: node stubs are
    shuffled and paired; self-loops and duplicate edges cause a retry of
    the offending pass.  For the degrees and sizes used in this library the
    construction succeeds quickly; if it cannot after ``max_retries``
    passes, the remaining edges are completed greedily, which may leave a
    handful of nodes one edge short (harmless for gossip experiments).

    Parameters
    ----------
    size:
        Number of nodes.
    degree:
        Target degree of every node.  ``size * degree`` must be even.
    rng:
        Randomness source.
    max_retries:
        Number of full pairing attempts before falling back to the greedy
        completion.
    """
    require_positive(size, "size")
    require_positive(degree, "degree")
    require(degree < size, f"degree ({degree}) must be smaller than size ({size})")
    if (size * degree) % 2 != 0:
        raise TopologyError("size * degree must be even for a regular graph")

    for _ in range(max_retries):
        adjacency = _pair_stubs(size, degree, rng)
        if adjacency is not None:
            return StaticTopology(adjacency, name=f"regular(k={degree})")
    # Greedy fallback: build via repeated sampling, allowing slight deficit.
    adjacency = {node: set() for node in range(size)}
    nodes = list(range(size))
    for node in nodes:
        attempts = 0
        while len(adjacency[node]) < degree and attempts < 20 * degree:
            peer = rng.integer(0, size)
            attempts += 1
            if peer == node or peer in adjacency[node] or len(adjacency[peer]) >= degree:
                continue
            adjacency[node].add(peer)
            adjacency[peer].add(node)
    return StaticTopology(adjacency, name=f"regular(k={degree})")


def _pair_stubs(size: int, degree: int, rng: RandomSource) -> Dict[int, Set[int]] | None:
    """One configuration-model pairing pass; ``None`` if it produced clashes."""
    stubs = []
    for node in range(size):
        stubs.extend([node] * degree)
    order = rng.shuffled_indices(len(stubs))
    shuffled = [stubs[int(i)] for i in order]
    adjacency: Dict[int, Set[int]] = {node: set() for node in range(size)}
    for index in range(0, len(shuffled), 2):
        a, b = shuffled[index], shuffled[index + 1]
        if a == b or b in adjacency[a]:
            return None
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency
