"""Watts–Strogatz small-world graphs.

Built as the paper (and the original Nature paper) describe: start from
a regular ring lattice of the requested degree, then rewire every edge
with probability ``beta``.  Rewiring the lattice edge ``(n, m)`` owned by
``n`` keeps ``n`` and replaces ``m`` by a uniformly random node that is
neither ``n`` nor already a neighbour of ``n``.

The rewiring is array passes, not a per-edge loop: one Bernoulli(β)
mask over the ``N * k/2`` lattice edges, all new targets drawn at once
(skip-self), and draws that repeat an existing edge redrawn until the
graph is simple, so exactly ``N * k/2`` edges remain.  The few edges the
passes leave unplaced (only near the densest valid degree) are completed
exactly, so every requested rewire happens.  Unlike the sequential
original, a draw sees the other rewires only through the repeat check.

``beta = 0`` is the ring lattice itself; ``beta = 1`` rewires every edge,
producing a random graph.  The paper sweeps ``beta`` in Figure 4(a) and
uses ``beta ∈ {0, 0.25, 0.5, 0.75}`` in Figure 3.
"""

from __future__ import annotations

import numpy as np

from ..common.rng import RandomSource
from ..common.validation import require, require_positive, require_probability
from .base import StaticTopology
from .replicated import rows_from_edges
from .ring_lattice import ring_lattice_edges

__all__ = ["watts_strogatz_topology"]

#: Redraw passes before the stuck rewires are completed exactly (the
#: bound :func:`~repro.topology.replicated.sample_distinct_peers` uses).
_REDRAW_PASSES = 64


def watts_strogatz_topology(
    size: int, degree: int, beta: float, rng: RandomSource
) -> StaticTopology:
    """Build a Watts–Strogatz graph.

    Parameters
    ----------
    size:
        Number of nodes.
    degree:
        Degree of the initial ring lattice (must be even and below
        ``size - 1``, so a rewire always has somewhere to go).
    beta:
        Rewiring probability in ``[0, 1]``.
    rng:
        Randomness source used for the rewiring decisions and targets.
    """
    require_positive(size, "size")
    require_positive(degree, "degree")
    require(degree % 2 == 0, f"degree must be even, got {degree}")
    require(degree < size - 1, f"degree ({degree}) must be below size-1 ({size - 1})")
    require_probability(beta, "beta")

    owners, targets = ring_lattice_edges(size, degree)
    if beta > 0.0:
        generator = rng.generator
        _rewire(size, owners, targets, generator.random(owners.size) < beta, generator)
    neighbours, degrees = rows_from_edges(size, owners, targets)
    return StaticTopology.from_rows(
        neighbours, degrees, name=f"watts-strogatz(k={degree}, beta={beta:.2f})"
    )


def _edge_keys(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 key per undirected edge: ``min * size + max``."""
    return np.minimum(a, b) * size + np.maximum(a, b)


def _rewire(
    size: int,
    owners: np.ndarray,
    targets: np.ndarray,
    rewired: np.ndarray,
    generator: np.random.Generator,
) -> None:
    """Point every ``rewired`` edge at a fresh target, in place.

    The graph stays simple: each pass draws the pending edges' targets at
    once and keeps a draw unless its edge already exists or a
    lower-indexed draw of the same pass made it; the rest redraw.
    ``settled`` holds the sorted keys of every edge placed so far.
    """
    pending = np.flatnonzero(rewired)
    settled = np.sort(_edge_keys(size, owners[~rewired], targets[~rewired]))
    for _ in range(_REDRAW_PASSES):
        if pending.size == 0:
            return
        draws = generator.integers(0, size - 1, size=pending.size, dtype=np.int64)
        draws += draws >= owners[pending]
        targets[pending] = draws
        keys = _edge_keys(size, owners[pending], draws)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        keep = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        if settled.size:
            at = np.minimum(np.searchsorted(settled, keys), settled.size - 1)
            keep &= settled[at] != keys
        settled = np.insert(settled, np.searchsorted(settled, keys[keep]), keys[keep])
        pending = np.sort(pending[order[~keep]])
    _complete(size, owners, targets, pending, generator)


def _complete(
    size: int,
    owners: np.ndarray,
    targets: np.ndarray,
    stuck: np.ndarray,
    generator: np.random.Generator,
) -> None:
    """Place the ``stuck`` edges one at a time among the non-neighbours left.

    The owner keeps its edge when it still has a non-neighbour; one that
    already neighbours every node (possible only near the densest valid
    degree) hands the edge to a uniform node that does not.  Such a node
    exists because ``N * k/2 < N (N - 1) / 2``.
    """
    placed = np.ones(owners.size, dtype=bool)
    placed[stuck] = False
    for edge in stuck.tolist():
        owner = owners[edge]
        degrees = np.bincount(owners[placed], minlength=size)
        degrees += np.bincount(targets[placed], minlength=size)
        if degrees[owner] == size - 1:
            open_nodes = np.flatnonzero(degrees < size - 1)
            owner = owners[edge] = open_nodes[generator.integers(0, open_nodes.size)]
        free = np.ones(size, dtype=bool)
        free[owner] = False
        free[targets[placed & (owners == owner)]] = False
        free[owners[placed & (targets == owner)]] = False
        candidates = np.flatnonzero(free)
        targets[edge] = candidates[generator.integers(0, candidates.size)]
        placed[edge] = True
