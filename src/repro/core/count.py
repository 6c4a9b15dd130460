"""COUNT: estimating the network size.

The paper derives the network size from averaging a *peak* distribution:
if exactly one node (the leader) starts with value 1 and everyone else
with 0, the true average is 1/N, so every node can read the size off its
converged local estimate.

Two realisations are provided:

* :func:`peak_initial_values` + the plain :class:`AverageFunction` — the
  simple scheme used for the robustness experiments of Section 7 (the
  leader, node 0, is a single point of failure, which is precisely why
  the paper uses it as the worst case).
* :class:`CountArrayFunction` — the multi-leader map scheme of Section 5.
  Every node keeps a map from leader identifier to an average estimate;
  exchanging nodes merge maps key-wise, treating a missing key as the
  value 0 (so the entry is halved).  The function is built over one
  epoch's self-elected leaders and carries both the dict states of the
  reference engine and the array rows of the vectorised one; an epoch
  nobody led is the empty universe, width-0 rows.

Section 5's adaptive loop lives here once, in :class:`AdaptiveCount`:
each epoch it elects leaders with ``P_lead = C / N̂``
(:class:`LeaderElection`), builds the epoch's :class:`CountArrayFunction`,
reduces rows to per-node size estimates, feeds finite estimates back
into the election, carries the previous estimate across a dry
(zero-leader or all-diverged) epoch and keeps one
:class:`CountEpochRecord` per epoch.  The cycle-engine ``EpochDriver``
and the asynchronous engine's ``AsyncCountProtocol`` only open epochs on
it and report their rows' estimates to it.

This module owns COUNT's size arithmetic, and no other module repeats it:

* N̂ = 1/â — :func:`network_size_from_estimate`, the one reciprocal, for
  a scalar or an array (``inf`` where the estimate is ≤ 0, NaN or
  missing);
* the symmetric trimmed mean of Section 7.3 over the per-leader (or
  per-instance) sizes, which always drops :data:`TRIM_FRACTION` — the
  lowest and the highest thirds — from each end:
  :func:`count_estimates_from_matrix` for ``(nodes, leaders)`` blocks, and
  :func:`count_estimate_from_map`, the scalar oracle it is tested
  against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ProtocolError
from ..common.rng import RandomSource
from ..common.validation import require_positive
from .functions import AggregationFunction, state_row_blocks

__all__ = [
    "TRIM_FRACTION",
    "peak_initial_values",
    "network_size_from_estimate",
    "CountArrayFunction",
    "LeaderElection",
    "CountEpochRecord",
    "AdaptiveCount",
    "count_estimate_from_map",
    "count_estimates_from_matrix",
]


#: Share of the sorted estimates the paper's symmetric trimmed mean drops
#: from *each* end (Section 7.3: the lowest and the highest thirds).
TRIM_FRACTION = 1.0 / 3.0


def peak_initial_values(size: int, peak_value: float = 1.0) -> List[float]:
    """Initial values of the peak distribution used by the basic COUNT.

    Parameters
    ----------
    size:
        Number of nodes.
    peak_value:
        Value held by the leader, node 0; every other node holds 0.  The
        paper also uses this distribution with ``peak_value = size`` to
        obtain a global average of exactly 1 (Figure 2).
    """
    require_positive(size, "size")
    values = [0.0] * size
    values[0] = float(peak_value)
    return values


def network_size_from_estimate(average_estimate):
    """Convert converged peak-distribution averages into size estimates.

    ``average_estimate`` is a scalar (``None`` allowed) or an array; the
    result has the same shape, a ``float`` for a scalar.  The size is
    ``inf`` wherever the estimate is zero, negative, NaN or missing
    (possible in early cycles or after the leader crashed before
    spreading its value), matching the paper's observation that the
    estimate "can even become infinite".
    """
    estimates = np.asarray(average_estimate, dtype=np.float64)
    sizes = np.full(estimates.shape, np.inf)
    # Denormal-tiny estimates overflow to inf, as Python's 1.0 / x does.
    with np.errstate(over="ignore"):
        np.divide(1.0, estimates, out=sizes, where=estimates > 0.0)
    return float(sizes) if sizes.ndim == 0 else sizes


# reach: oracle — one dict map's COUNT estimate; count_estimates_from_matrix must match it
def count_estimate_from_map(state: Mapping[int, float]) -> float:
    """Network-size estimate derived from a COUNT map.

    Each map entry yields the estimate ``1 / value``; entries are combined
    with the paper's symmetric trimmed mean (drop :data:`TRIM_FRACTION`
    of them from each end), which always keeps at least one entry.

    Returns ``inf`` for an empty map.
    """
    if not state:
        return math.inf
    estimates = sorted(network_size_from_estimate(value) for value in state.values())
    drop = int(len(estimates) * TRIM_FRACTION)
    kept = estimates[drop: len(estimates) - drop]
    finite = [value for value in kept if math.isfinite(value)]
    if not finite:
        return math.inf
    return sum(finite) / len(finite)


# ----------------------------------------------------------------------
# Map-based COUNT (Section 5)
# ----------------------------------------------------------------------
class CountArrayFunction(AggregationFunction):
    """Multi-leader COUNT state: a map from leader id to average estimate.

    The merge rule follows the paper exactly: keys present in only one of
    the two maps are halved (the other node implicitly contributes a 0),
    keys present in both are averaged.  Every node therefore runs one
    averaging instance per leader, and each instance converges to ``1/N``.

    Within one epoch the set of self-elected leaders never changes, so the
    function is built over that *fixed* leader universe and a node's map
    is fully described by one value and one presence flag per leader: the
    array row is ``[values(L), mask(L)]`` with absent entries holding
    exactly ``0.0``.  Because a missing key is the value 0, the merge
    collapses to two elementwise expressions — ``(v_i + v_r) / 2`` and
    ``max(m_i, m_r)`` — that are bit-identical to the dict merge (in
    IEEE-754 float64, ``(v + 0.0) / 2.0 == v / 2.0`` exactly).  The class
    therefore runs as dict states on the reference engine and as a dense
    ``(nodes, 2L)`` block on the vectorised engine, producing the same
    per-node maps from the same seed.

    Initial values are *leader identifiers*: a node whose local value is
    the id of one of the known leaders starts with ``{id: 1.0}``; ``None``
    or any negative value (conventionally ``-1``) means "not a leader"
    and yields the empty map (:meth:`leader_values` encodes a population).

    The universe may be empty: a dry epoch, where nobody elected itself,
    is an ordinary epoch with width-0 rows, empty maps and infinite size
    estimates on every engine.
    """

    name = "count-map"

    def __init__(self, leaders: Sequence[int]) -> None:
        unique = sorted({int(leader) for leader in leaders})
        self._leaders: Tuple[int, ...] = tuple(unique)
        # Sorted ids plus a sentinel above every id: ``searchsorted`` lands
        # an unknown id on a slot holding a different id, even when the
        # universe is empty.
        self._slot_ids = np.append(np.asarray(unique, dtype=np.int64), np.iinfo(np.int64).max)
        self._slot_of: Dict[int, int] = {leader: slot for slot, leader in enumerate(unique)}

    @property
    def leaders(self) -> Tuple[int, ...]:
        """The fixed leader universe, in slot order (sorted ids)."""
        return self._leaders

    def leader_values(self, node_ids) -> np.ndarray:
        """The initial values of ``node_ids``: a leader's own id, ``-1`` otherwise."""
        ids = np.asarray(node_ids, dtype=np.int64)
        return np.where(np.isin(ids, self._slot_ids[:-1]), ids, -1).astype(np.float64)

    # reach: oracle — a leader's column, for the scalar codec's dict maps
    def _slot(self, leader: int) -> int:
        try:
            return self._slot_of[leader]
        except KeyError as exc:
            raise ProtocolError(
                f"leader {leader} is not in this epoch's universe {self._leaders}"
            ) from exc

    # reach: oracle — scalar codec of the reference engine; initial_state_array must match it
    def initial_state(self, local_value) -> Dict[int, float]:
        """Initial map: ``{id: 1.0}`` for a leader id, ``{}`` otherwise.

        ``local_value`` may be ``None`` or a negative number for a
        non-leader, a leader identifier, or an explicit mapping; leader
        identifiers and mapping keys must lie in the fixed universe.
        """
        if local_value is None:
            return {}
        if isinstance(local_value, Mapping):
            state = {int(k): float(v) for k, v in local_value.items()}
        elif isinstance(local_value, (int, float)) and not isinstance(local_value, bool):
            if local_value < 0:
                return {}
            state = {int(local_value): 1.0}
        else:
            raise ProtocolError(f"cannot build a COUNT map state from {local_value!r}")
        for leader in state:
            self._slot(leader)
        return state

    # reach: oracle — scalar codec of the reference engine; merge_arrays must match it
    def merge(
        self, initiator_state: Dict[int, float], responder_state: Dict[int, float]
    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        merged: Dict[int, float] = {}
        for leader, estimate in initiator_state.items():
            if leader in responder_state:
                merged[leader] = (estimate + responder_state[leader]) / 2.0
            else:
                merged[leader] = estimate / 2.0
        for leader, estimate in responder_state.items():
            if leader not in initiator_state:
                merged[leader] = estimate / 2.0
        # Both peers install the same merged map.
        return dict(merged), dict(merged)

    # reach: oracle — scalar codec of the reference engine; estimate_array must match it
    def estimate(self, state: Dict[int, float]) -> Optional[float]:
        """The average of the per-leader estimates (``None`` if the map is empty).

        Each per-leader entry independently converges to 1/N, so averaging
        them is the natural scalar summary; the trimmed mean of Section 7.3
        is :func:`count_estimate_from_map`.
        """
        if not state:
            return None
        return sum(state.values()) / len(state)

    # reach: oracle — the scalar states' conserved mass, which tests check across exchanges
    def conserved_quantity(self, states: Sequence[Dict[int, float]]) -> float:
        """Total mass summed over all leaders and nodes (1 per live leader)."""
        return float(sum(sum(state.values()) for state in states))

    # ------------------------------------------------------------------
    # Array codec
    # ------------------------------------------------------------------
    def state_width(self) -> int:
        return 2 * len(self._leaders)

    def initial_state_array(self, values: np.ndarray) -> np.ndarray:
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        width = len(self._leaders)
        states = np.zeros((flat.size, 2 * width), dtype=np.float64)
        rows = np.flatnonzero(flat >= 0)
        if rows.size:
            ids = flat[rows].astype(np.int64)
            slots = np.searchsorted(self._slot_ids, ids)
            bad = self._slot_ids[slots] != ids
            if np.any(bad):
                raise ProtocolError(
                    f"leader {int(ids[np.flatnonzero(bad)[0]])} is not in this "
                    f"epoch's universe {self._leaders}"
                )
            states[rows, slots] = 1.0
            states[rows, width + slots] = 1.0
        return states

    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        width = len(self._leaders)
        merged = np.empty_like(initiator_states)
        # Absent values hold exactly 0.0, so the shared-key average and the
        # one-sided halving are the same expression (the dict merge's two
        # branches compute (a+b)/2 and a/2 == (a+0.0)/2).
        merged[:, :width] = (initiator_states[:, :width] + responder_states[:, :width]) / 2.0
        merged[:, width:] = np.maximum(initiator_states[:, width:], responder_states[:, width:])
        return merged, merged

    def estimate_array(self, states: np.ndarray) -> np.ndarray:
        width = len(self._leaders)
        counts = states[:, width:].sum(axis=1)
        sums = states[:, :width].sum(axis=1)
        return np.divide(
            sums,
            counts,
            out=np.full(states.shape[0], np.nan),
            where=counts > 0,
        )

    # reach: oracle — a scalar state as an array row, for the reference engine's state_array
    def encode_state(self, state: Mapping[int, float]) -> np.ndarray:
        width = len(self._leaders)
        row = np.zeros(2 * width, dtype=np.float64)
        for leader, value in state.items():
            slot = self._slot(int(leader))
            row[slot] = float(value)
            row[width + slot] = 1.0
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CountArrayFunction(leaders={len(self._leaders)})"


def count_estimates_from_matrix(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Batched :func:`count_estimate_from_map` over ``(nodes, leaders)`` blocks.

    ``values`` and ``mask`` are aligned matrices (mask non-zero where the
    node's map holds that leader's entry).  Returns one size estimate per
    row, reproducing the scalar reduction's semantics exactly: per-entry
    sizes ``1/value`` (``inf`` for non-positive values), symmetric trim of
    ``int(map_size * TRIM_FRACTION)`` entries from each end (always
    keeping one), and ``inf`` for rows whose kept entries are all
    non-finite (including empty maps).

    The per-row arithmetic mean uses one :func:`numpy.sum` pass, so
    results can differ from the scalar reduction in the last few ulps
    (floating-point summation order); :class:`AdaptiveCount` reduces
    *this* way on every engine, which is what makes the cycle engines'
    per-epoch estimates bit-identical to each other.  Rows are reduced in
    :func:`~repro.core.functions.state_row_blocks`, so the temporaries
    stay a few row blocks however many rows there are.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask)
    rows, width = values.shape
    if width == 0:
        return np.full(rows, math.inf)
    estimates = np.empty(rows)
    for block in state_row_blocks(rows, width):
        estimates[block] = _trimmed_means(values[block], np.asarray(mask[block], dtype=bool))
    return estimates


def _trimmed_means(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:func:`count_estimates_from_matrix` over one block of rows."""
    # Present entries map to their size estimate (inf when value <= 0);
    # absent entries become NaN, which numpy sorts past +inf — so every
    # sorted row reads [finite ascending..., inf..., NaN...], exactly the
    # scalar reduction's sorted map followed by padding.
    sizes = network_size_from_estimate(values)
    sizes[~mask] = np.nan
    sizes.sort(axis=1)

    map_sizes = mask.sum(axis=1)
    low = (map_sizes * TRIM_FRACTION).astype(np.int64)
    high = map_sizes - low
    columns = np.arange(values.shape[1])
    kept = (
        (columns >= low[:, None])
        & (columns < high[:, None])
        & np.isfinite(sizes)
    )
    counts = kept.sum(axis=1)
    totals = np.where(kept, sizes, 0.0).sum(axis=1)
    return np.divide(
        totals,
        counts,
        out=np.full(values.shape[0], math.inf),
        where=counts > 0,
    )


# ----------------------------------------------------------------------
# Leader election (Section 5, "Plead = C / N̂")
# ----------------------------------------------------------------------
@dataclass
class LeaderElection:
    """Self-election of COUNT leaders at the start of every epoch.

    Each node independently becomes a leader with probability
    ``P_lead = concurrent_target / estimated_size``, so the number of
    concurrent COUNT runs is approximately Poisson with mean
    ``concurrent_target`` as long as the size estimate from the previous
    epoch is roughly right.

    Attributes
    ----------
    concurrent_target:
        Desired number of concurrent COUNT runs (``C`` in the paper).
    estimated_size:
        Size estimate from the previous epoch (``N̂``); updated by calling
        :meth:`update_estimate`.
    """

    concurrent_target: float
    estimated_size: float

    def __post_init__(self) -> None:
        require_positive(self.concurrent_target, "concurrent_target")
        require_positive(self.estimated_size, "estimated_size")

    @property
    def lead_probability(self) -> float:
        """The per-node self-election probability ``P_lead``, capped at 1."""
        return min(1.0, self.concurrent_target / self.estimated_size)

    # reach: oracle — the one-node-at-a-time election; elect_batch must draw the same leaders
    def elect(self, node_ids: Sequence[int], rng: RandomSource) -> List[int]:
        """Return the identifiers that elected themselves for this epoch."""
        probability = self.lead_probability
        if probability >= 1.0:
            return list(node_ids)
        generator = rng.generator
        return [node for node in node_ids if generator.random() < probability]

    def elect_batch(self, node_ids: Sequence[int], rng: RandomSource) -> np.ndarray:
        """Batched :meth:`elect`: one vectorised draw for the whole id list.

        ``Generator.random(n)`` consumes the underlying bit stream exactly
        like ``n`` scalar ``random()`` calls, so this returns the *same*
        leader set as :meth:`elect` from the same stream state (asserted
        by the test suite); it is simply O(1) generator calls instead of
        O(N).  Like :meth:`elect`, a certain election consumes no
        randomness.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        probability = self.lead_probability
        if probability <= 0.0:
            return ids[:0]
        if probability >= 1.0:
            return ids.copy()
        return ids[rng.generator.random(ids.size) < probability]

    def update_estimate(self, new_estimate: float) -> None:
        """Adopt the size estimate produced by the epoch that just ended."""
        if new_estimate > 0 and math.isfinite(new_estimate):
            self.estimated_size = float(new_estimate)


# ----------------------------------------------------------------------
# The adaptive loop (Section 5): one ledger for every engine
# ----------------------------------------------------------------------
@dataclass
class CountEpochRecord:
    """One epoch of adaptive COUNT, as :class:`AdaptiveCount` records it.

    Reports accumulate: the cycle-engine driver reports every surviving
    node at the epoch's end, the asynchronous engine each node as it
    leaves the epoch.
    """

    epoch_id: int
    leader_count: int
    #: The ``P_lead`` the election used (``C / N̂`` capped at 1).
    lead_probability: float
    reporters: int = 0
    #: Reporters that left by epidemic sync rather than their own restart.
    jump_reporters: int = 0
    #: Reporters whose size estimate was finite, with its sum and extremes
    #: (``inf`` and ``-inf``, the empty extremes, while there is none).
    finite_reporters: int = 0
    estimate_sum: float = 0.0
    min_estimate: float = math.inf
    max_estimate: float = -math.inf
    #: The adopted estimate: this epoch's mean, or on a dry epoch the one
    #: adopted before it (the election's initial estimate at first).
    size_estimate: float = math.nan

    @property
    def dry(self) -> bool:
        """Whether no reporter held a finite estimate (so far)."""
        return self.finite_reporters == 0

    @property
    def mean_estimate(self) -> float:
        """Mean of the finite reported size estimates (``inf`` when dry)."""
        return math.inf if self.dry else self.estimate_sum / self.finite_reporters


class AdaptiveCount:
    """Section 5's adaptive COUNT loop, one epoch at a time.

    :meth:`open_epoch` elects the epoch's leaders and fixes its
    :class:`CountArrayFunction`; :meth:`estimate_rows` reduces rows with
    the Section 7.3 trimmed mean, and :meth:`report` takes finishing
    nodes' estimates and feeds the epoch's running mean back into the
    election.  Only finite estimates count, and only
    the newest epoch with one drives ``N̂``, so a late report to an older
    overlapping epoch never overrides a newer one.  A zero-leader epoch
    is an ordinary epoch over the empty universe: width-0 rows, ``inf``
    reports, and the previous estimate carried forward.
    """

    def __init__(self, election: LeaderElection) -> None:
        self.election = election
        self._initial_estimate = election.estimated_size
        self._codecs: Dict[int, CountArrayFunction] = {}
        self._records: Dict[int, CountEpochRecord] = {}
        self._feedback_epoch = -1

    def open_epoch(self, epoch_id: int, alive_ids, rng: RandomSource) -> CountArrayFunction:
        """Elect ``epoch_id``'s leaders among ``alive_ids`` on ``rng``; its function."""
        codec = CountArrayFunction(self.election.elect_batch(alive_ids, rng))
        self._codecs[epoch_id] = codec
        self._records[epoch_id] = CountEpochRecord(
            epoch_id=epoch_id,
            leader_count=len(codec.leaders),
            lead_probability=self.election.lead_probability,
        )
        self._carry_forward()
        return codec

    def codec(self, epoch_id: int) -> CountArrayFunction:
        """The :class:`CountArrayFunction` of an opened epoch."""
        return self._codecs[epoch_id]

    def estimate_rows(self, epoch_id: int, rows: np.ndarray) -> np.ndarray:
        """Per-row size estimates of ``epoch_id``'s rows: the trimmed mean."""
        width = len(self._codecs[epoch_id].leaders)
        return count_estimates_from_matrix(rows[:, :width], rows[:, width:])

    def report(
        self, epoch_id: int, estimates: np.ndarray, jumped: bool = False
    ) -> CountEpochRecord:
        """Nodes finished ``epoch_id`` with these per-row :meth:`estimate_rows`.

        ``jumped``: they left by epidemic sync.  Engines estimate their rows
        a row block at a time; the sum here is one pass over them all.
        """
        record = self._records[epoch_id]
        finite = estimates[np.isfinite(estimates)]
        record.reporters += estimates.size
        if jumped:
            record.jump_reporters += estimates.size
        if finite.size:
            record.estimate_sum += float(finite.sum())
            record.finite_reporters += int(finite.size)
            record.min_estimate = min(record.min_estimate, float(finite.min()))
            record.max_estimate = max(record.max_estimate, float(finite.max()))
            if epoch_id >= self._feedback_epoch:
                self._feedback_epoch = epoch_id
                self.election.update_estimate(record.mean_estimate)
            self._carry_forward()
        return record

    def epoch_records(self) -> List[CountEpochRecord]:
        """Every opened epoch's record, in epoch order."""
        return [self._records[epoch] for epoch in sorted(self._records)]

    def _carry_forward(self) -> None:
        adopted = self._initial_estimate
        for record in self.epoch_records():
            if not record.dry:
                adopted = record.mean_estimate
            record.size_estimate = adopted
