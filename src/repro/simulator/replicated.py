"""The stacked cycle engine: R independent runs as one tensor simulation.

Every figure of the paper is a sweep of repeats × parameter points —
e.g. 50 independent runs per plotted value.  This module is the one
array engine behind all of them: a :class:`StackedCycleEngine` holds
``R`` independent repetitions in one stacked state tensor (block layout
``(R * stride, width)``, replica ``r``'s ``k``-th participant at row
``r * stride + k``) and executes the heavy per-cycle passes — conflict
scheduling, gather/merge/scatter rounds, transport filtering, metric
extraction — once across the whole block.  It has two entry points:

* :class:`ReplicatedCycleSimulator` runs ``R`` repetitions and hands out
  one :class:`ReplicaView` per repetition;
* :class:`~repro.simulator.vectorized.VectorizedCycleSimulator` is the
  ``R = 1`` entry, a :class:`ReplicaView` that owns its engine and so
  carries the constructor and ``run``/``run_cycle`` signatures of the
  reference :class:`~repro.simulator.cycle_sim.CycleSimulator`.

:class:`ReplicaView` is the single implementation of the per-run
simulator surface (state block, participants, membership operations)
that failure models, experiment plumbing and tests drive.

Each cycle

1. applies every replica's failure model through its view (the public
   membership API is the reference engine's, so every failure model
   works unchanged),
2. draws each replica's shuffle order, peer choices and transport
   outcomes as *batched* generator calls through the shared
   :func:`~repro.simulator.sampling.draw_cycle_plan`,
3. stacks the plans with block offsets
   (:func:`~repro.simulator.sampling.stack_cycle_plans`), filters the
   state-touching exchanges (:func:`effective_exchange_filter`) and
   applies the push–pull merges (:func:`apply_merge_rounds`), using
   :func:`~repro.simulator.sampling.ordered_conflict_rounds` to resolve
   the sequential dependency chain as a short series of conflict-free
   gather/merge/scatter passes, and
4. records each replica's mean/variance/min/max with one vectorised
   pass over its slice of the estimate array.

Memory law
----------
A replica's rows are its participants at construction, ranked in id
order, not its ids: an id → row map over those participants
(:class:`_Replica`) translates each cycle's plan, and is the identity,
with no per-cycle gather, when the ids are ``0..n-1``.  The state tensor
is therefore ``participants × width × 8`` bytes (``stride`` is the
largest replica's participant count); sparse ids add 8 bytes per
participant for its id and 8 bytes per id below the largest for the
map.  A crash only clears its row's mask bit, and a joiner gets no row
until the next engine is built (the next epoch), so the block never
grows during a run, and an endless epoch sequence holds one live-sized
block per epoch however many ids churn has issued.  Every pass over the
tensor — the initial encode, each conflict round's gather/merge/scatter,
the per-record estimates, and the end-of-run hand-over of the R = 1
entry (``_release_state_array``) — works in row blocks of at most
``_STATE_BLOCK_BYTES`` (256 KiB, :mod:`repro.core.functions`), so its
scratch is ``O(budget)``, not another block.

No Python object per node remains on a run's path: the overlay's
``node_ids()`` is an int64 array the engine takes as it is, initial
values are read as one float64 array (what
:func:`~repro.experiments.runner.uniform_initial_values` returns, passed
through by :meth:`~repro.experiments.runner.RunPlan.resolve_values`),
and besides the tensor the engine keeps 13 bytes per row: the
participant mask, the conflict-round scratch (int32) and the cached
participant rows (int64).  Views are made on demand, so an engine and
its views form no reference cycle and a finished run is freed by
reference counting.

Bit-identity contract
---------------------
Each replica keeps its *own* random streams: replica ``r`` is
constructed from the same ``root.child("run", r)`` stream
:meth:`~repro.experiments.runner.RunPlan.serial_run` takes for run ``r``
alone, and every cycle draws that
replica's plan and failure injections from those streams through the
very same code paths.  Only the *execution* is fused: replicas are
node-disjoint, so the stacked conflict rounds refine into exactly the
per-replica rounds, and the merge arithmetic is elementwise per
exchange.  Every replica's trace and final states are therefore
**bit-identical** to a one-replica run of the same stream, and — both
engines consuming randomness through the same cycle-plan discipline,
the array merges using bit-identical float64 expressions — the *same
exchange schedule and node states* as the reference engine, traces
agreeing to within floating-point summation order.  The equivalence
suites assert both, run for run.

Use :data:`~repro.simulator.make_simulator` for a single run and
:func:`~repro.experiments.runner.repeat_simulations` with a
:class:`~repro.experiments.runner.RunPlan` for repeats.  Every overlay
offers the batched peer draw and every aggregation function carries the
array codec, so this engine runs every scenario the reference engine
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..common.errors import ConfigurationError, SimulationError
from ..common.rng import RandomSource
from ..common.validation import require_non_negative_int, require_positive_int
from ..core.functions import AggregationFunction, state_block_rows, state_row_blocks
from ..topology.base import OverlayProvider
from .failures import FailureModel, failure_model_or_default
from .metrics import CycleRecord, SimulationTrace, estimate_statistics
from .sampling import (
    CyclePlan, conflict_scratch, draw_cycle_plan, ordered_conflict_rounds, stack_cycle_plans
)
from .transport import (
    OUTCOME_COMPLETED,
    OUTCOME_DROPPED,
    PERFECT_TRANSPORT,
    TransportModel,
    apply_reachability,
)

__all__ = [
    "InitialValues",
    "normalise_initial_values",
    "ReplicaConfig",
    "StackedCycleEngine",
    "ReplicatedCycleSimulator",
    "ReplicaView",
    "effective_exchange_filter",
    "apply_merge_rounds",
]

InitialValues = Union[Sequence[Any], Mapping[int, Any]]


def normalise_initial_values(
    initial_values: InitialValues, node_ids: Sequence[int]
) -> Dict[int, Any]:
    """``initial_values`` as a mapping covering every id in ``node_ids``.

    A sequence holding exactly one value per node is read in id order;
    any other sequence is indexed by node id.  The two agree on the ids
    ``0..n-1``, and with sparse ids only the first can cover every node.
    """
    if isinstance(initial_values, Mapping):
        values = dict(initial_values)
    elif len(initial_values) == len(node_ids):
        values = dict(zip(sorted(node_ids), initial_values))
    else:
        values = {index: value for index, value in enumerate(initial_values)}
    missing = [node for node in node_ids if node not in values]
    if missing:
        raise ConfigurationError(
            f"initial values missing for {len(missing)} nodes (e.g. {missing[:5]})"
        )
    return values



def effective_exchange_filter(
    initiators: np.ndarray,
    peers: np.ndarray,
    outcomes: np.ndarray,
    participant_mask: np.ndarray,
    all_present: bool,
    perfect: bool,
):
    """Select the state-touching exchanges of one (possibly stacked) cycle.

    An exchange touches state unless the peer is unusable (no neighbour,
    crashed, or refusing this epoch) or the transport dropped it
    outright.  Indexing the mask with ``-1`` wraps to the last entry; the
    ``peers >= 0`` term discards those lookups.

    Returns ``(eff_initiators, eff_peers, eff_completed, effective_index)``:
    the filtered exchange endpoints, the per-effective-slot completed
    flags (``None`` on perfect transports, where every effective exchange
    completes), and the indices of the effective slots in the input
    arrays (``None`` when nothing was filtered out).
    """
    if all_present and (peers.size == 0 or int(peers.min()) >= 0):
        # Every node participates and every initiator found a peer, so
        # the validity filter would keep everything — skip it.
        valid = None
    else:
        valid = participant_mask[peers] & (peers >= 0)
    if valid is None and perfect:
        return initiators, peers, None, None
    effective = (
        valid
        if perfect
        else (
            (outcomes != OUTCOME_DROPPED)
            if valid is None
            else valid & (outcomes != OUTCOME_DROPPED)
        )
    )
    effective_index = effective.nonzero()[0]
    eff_initiators = initiators[effective_index]
    eff_peers = peers[effective_index]
    # effective_index is always materialised on the lossy path, so the
    # completed flags stay aligned with the effective exchange list.
    eff_completed = (
        None if perfect else outcomes[effective_index] == OUTCOME_COMPLETED
    )
    return eff_initiators, eff_peers, eff_completed, effective_index


def apply_merge_rounds(
    state_block: np.ndarray,
    function: AggregationFunction,
    eff_initiators: np.ndarray,
    eff_peers: np.ndarray,
    eff_completed: Optional[np.ndarray],
    scratch: np.ndarray,
) -> None:
    """Apply one cycle's effective exchanges to a ``(rows, width)`` block.

    The sequential dependency chain (a node's state may be read by a
    later exchange of the same cycle) is resolved through
    :func:`~repro.simulator.sampling.ordered_conflict_rounds`; each round
    is one gather/merge/scatter pass.  The block may hold a single run or
    ``R`` stacked replicas — node-disjoint rows merge independently, so
    the kernel is oblivious to the replica dimension.  A round's pairs are
    node-disjoint too, so a round is applied in batches of
    :func:`~repro.core.functions.state_block_rows` pairs: the gathered rows
    never exceed a few blocks, however wide the state.
    """
    # Codecs that accept flat state vectors (the width-1 scalar
    # functions) run on the flat column: 1-D gathers and scatters are
    # markedly faster than row-wise fancy indexing.  Width-1 functions
    # without the flag (e.g. a single-component VectorFunction, whose
    # merge slices columns) stay on the 2-D path.
    states = state_block[:, 0] if function.flat_state_codec else state_block
    merge = function.merge_arrays
    rounds = ordered_conflict_rounds(
        eff_initiators, eff_peers, scratch, track_positions=eff_completed is not None
    )
    step = state_block_rows(state_block.shape[1])
    for batch_initiators, batch_peers, batch_positions in _row_blocked(rounds, step):
        new_initiator, new_responder = merge(
            states[batch_initiators], states[batch_peers]
        )
        if eff_completed is None:
            states[batch_initiators] = new_initiator
        else:
            # Response-lost exchanges update only the responder; the
            # initiator never saw the reply and keeps its old state.
            completed_mask = eff_completed[batch_positions]
            states[batch_initiators[completed_mask]] = new_initiator[completed_mask]
        states[batch_peers] = new_responder


def _row_blocked(rounds, step: int):
    """Each conflict round, cut into batches of at most ``step`` pairs."""
    for initiators, peers, positions in rounds:
        if initiators.size <= step:
            yield initiators, peers, positions
            continue
        for start in range(0, initiators.size, step):
            stop = start + step
            yield (
                initiators[start:stop],
                peers[start:stop],
                None if positions is None else positions[start:stop],
            )


@dataclass
class ReplicaConfig:
    """Everything one repetition needs, mirroring a serial engine build.

    Attributes
    ----------
    overlay:
        The replica's own overlay (a block view or a standalone overlay).
    initial_values:
        Per-node initial values, sequence or mapping — the same formats
        :class:`~repro.simulator.cycle_sim.CycleSimulator` accepts.  One
        float per participant in id order is read as it is, with no
        per-node lookup.
    rng:
        The replica's simulation stream — pass the same
        ``root.child("run", i).child("simulation")`` stream the serial
        path would hand to its engine, and the replica reproduces that
        run bit-for-bit.
    failure_model:
        The replica's own (stateful) failure model instance, or ``None``.
    """

    overlay: OverlayProvider
    initial_values: InitialValues
    rng: RandomSource
    failure_model: Optional[FailureModel] = None


class _Replica:
    """Internal per-replica bookkeeping of the stacked engine.

    The replica's rows are its participants at construction, in id order:
    node ``member_ids[k]`` owns local row ``k``.  ``row_of`` maps an id
    to its row (``-1`` for none, with a trailing ``-1`` that ``-1``
    indexes); both are ``None`` when the ids are ``0..members-1``, where
    the row *is* the id.
    """

    __slots__ = (
        "overlay",
        "selection_rng",
        "transport_rng",
        "failure_rng",
        "overlay_rng",
        "membership_rng",
        "failure_model",
        "next_node_id",
        "members",
        "member_ids",
        "id_limit",
        "row_of",
        "trace",
        "pending_completed",
        "pending_failed",
        "live_rows",
        "participants_cache",
    )

    def __init__(self, config: ReplicaConfig, node_ids: np.ndarray) -> None:
        self.overlay = config.overlay
        rng = config.rng
        # The exact child-stream fan-out of the reference engine.
        self.selection_rng = rng.child("selection")
        self.transport_rng = rng.child("transport")
        self.failure_rng = rng.child("failures")
        self.overlay_rng = rng.child("overlay")
        self.membership_rng = rng.child("membership")
        self.failure_model = failure_model_or_default(config.failure_model, config.overlay)
        self.members = int(node_ids.size)
        #: One past the largest id with a row; joiners are numbered from it.
        self.id_limit = int(node_ids.max()) + 1 if node_ids.size else 0
        self.next_node_id = self.id_limit
        # Identifiers are distinct and non-negative, so the largest being
        # members - 1 certifies the dense 0..n-1 id space.
        self.member_ids: Optional[np.ndarray] = None
        self.row_of: Optional[np.ndarray] = None
        if self.id_limit != self.members:
            self.member_ids = np.sort(node_ids)
            self.row_of = np.full(self.id_limit + 1, -1, dtype=np.int64)
            self.row_of[self.member_ids] = np.arange(self.members, dtype=np.int64)
        self.trace = SimulationTrace()
        self.pending_completed = 0
        self.pending_failed = 0
        self.live_rows: Optional[np.ndarray] = None
        self.participants_cache: Optional[np.ndarray] = None

    def row(self, node_id: int) -> int:
        """The local row of ``node_id``, ``-1`` if it has none."""
        if not 0 <= node_id < self.id_limit:
            return -1
        return node_id if self.row_of is None else int(self.row_of[node_id])

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`row` over an int64 id array."""
        rows = np.where((ids >= 0) & (ids < self.id_limit), ids, -1)
        return rows if self.row_of is None else self.row_of[rows]


class StackedCycleEngine:
    """State tensor, membership masks and cycle pipeline of ``R`` stacked runs.

    The shared core behind :class:`ReplicatedCycleSimulator` and
    :class:`~repro.simulator.vectorized.VectorizedCycleSimulator`; build
    one of those rather than this class.

    Parameters
    ----------
    replicas:
        One :class:`ReplicaConfig` per repetition.
    function:
        The aggregation function shared by all repetitions (aggregation
        functions are stateless; per-replica state lives in the tensor).
    transport:
        Communication failure model (outcomes are still drawn from each
        replica's own transport stream).
    record_every:
        Collect the per-cycle metrics only every this-many cycles; the
        cycle-0 snapshot is always recorded and exchange counters
        accumulate across skipped cycles into the next record.
    reachability:
        Optional pairwise connectivity constraint
        (:class:`~repro.simulator.failures.ReachabilityModel`), set only
        through the ``R = 1`` entry.  Each replica's plan is filtered on
        its *local* node ids before stacking, so the blocked slots are
        identical to what the reference engine would block for the same
        seed.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaConfig],
        function: AggregationFunction,
        transport: TransportModel,
        record_every: int,
        reachability,
    ) -> None:
        require_positive_int(record_every, "record_every")
        self._function = function
        self._transport = transport
        self._reachability = reachability
        self._record_every = record_every
        self._width = function.state_width()
        self._count = len(replicas)
        self._replicas: List[_Replica] = []

        for config in replicas:
            self._replicas.append(_Replica(config, config.overlay.node_ids()))
            if reachability is not None:
                config.overlay.set_reachability(reachability)
        stride = max([1] + [replica.members for replica in self._replicas])
        self._stride = stride
        capacity = self._count * stride
        self._states = np.zeros((capacity, self._width), dtype=np.float64)
        self._participant_mask = np.zeros(capacity, dtype=bool)
        self._scratch = conflict_scratch(capacity)

        for index, (config, replica) in enumerate(zip(replicas, self._replicas)):
            if not replica.members:
                continue
            initial = config.initial_values
            if not isinstance(initial, Mapping) and len(initial) == replica.members:
                # One value per participant, in id order: the row order.
                values = np.asarray(initial, dtype=np.float64)
            else:
                dense = replica.member_ids is None
                order = range(replica.members) if dense else replica.member_ids.tolist()
                mapping = normalise_initial_values(initial, order)
                values = np.asarray([mapping[node] for node in order], dtype=np.float64)
            # Rows are ranks in id order, so a replica's rows are one
            # contiguous range, encoded a row block at a time.
            base = index * stride
            for block in state_row_blocks(replica.members, self._width):
                self._states[base + block.start : base + block.stop] = (
                    function.initial_state_array(values[block])
                )
            self._participant_mask[base : base + replica.members] = True

        self._cycle_index = 0
        self._flush_records()

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def function(self) -> AggregationFunction:
        """The aggregation function shared by all replicas."""
        return self._function

    @property
    def cycle_index(self) -> int:
        """Number of cycles executed so far (shared by all replicas)."""
        return self._cycle_index

    def traces(self) -> List[SimulationTrace]:
        """Per-replica traces, in replica order."""
        return [replica.trace for replica in self._replicas]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, views: Sequence["ReplicaView"]) -> bool:
        """Execute one full cycle for every replica in stacked form.

        ``views`` are the per-replica surfaces the failure models act on,
        in replica order.  Returns whether this cycle was recorded
        (``record_every`` may skip it).
        """
        self._cycle_index += 1
        for view, replica in zip(views, self._replicas):
            replica.failure_model.apply(view, self._cycle_index, replica.failure_rng)

        # Per-replica randomness, exactly as the reference engine draws it.
        plans = []
        for index, replica in enumerate(self._replicas):
            plans.append(
                draw_cycle_plan(
                    replica.overlay,
                    self._participants_local(index),
                    replica.selection_rng,
                    self._transport,
                    replica.transport_rng,
                )
            )
        # Correlated connectivity blocks apply to each replica's plan in
        # *local* node ids (the model's view), before block offsets shift
        # the rows — same slots the reference engine would drop.
        blocked_any = False
        for plan in plans:
            blocked_any |= apply_reachability(
                self._reachability,
                plan.initiators,
                plan.peers,
                plan.outcomes,
                self._cycle_index,
            )
        # From here on exchanges name local rows, not ids.  A peer without
        # a row crashed before this engine was built (a stale descriptor)
        # or joined since (it waits for the next epoch): unusable either
        # way, and it must not index into another row or replica.
        for index, (plan, replica) in enumerate(zip(plans, self._replicas)):
            plan.peers[plan.peers >= replica.id_limit] = -1
            if replica.row_of is not None:
                # -1 indexes the map's trailing -1.
                plans[index] = CyclePlan(
                    replica.row_of[plan.initiators], replica.row_of[plan.peers], plan.outcomes
                )
        stacked = stack_cycle_plans(
            plans, range(0, self._count * self._stride, self._stride)
        )

        eff_initiators, eff_peers, eff_completed, effective_index = (
            effective_exchange_filter(
                stacked.initiators,
                stacked.peers,
                stacked.outcomes,
                self._participant_mask,
                # Every participant initiates exactly once per cycle.
                all_present=stacked.initiators.size == self._participant_mask.size,
                # A reachability block turns outcomes to DROPPED even under
                # a perfect transport, so the filter must consult them.
                perfect=self._transport.is_perfect() and not blocked_any,
            )
        )
        apply_merge_rounds(
            self._states,
            self._function,
            eff_initiators,
            eff_peers,
            eff_completed,
            self._scratch,
        )

        # Split the stacked exchange ledger back into per-replica counts:
        # effective slots are ascending, so each replica owns a contiguous
        # range found with one searchsorted over the slot boundaries.
        # Every non-completed slot failed: unusable peer, dropped
        # exchange, or lost response.
        if effective_index is None:
            eff_bounds = stacked.bounds
        else:
            eff_bounds = np.searchsorted(effective_index, stacked.bounds)
        for index, replica in enumerate(self._replicas):
            low, high = int(eff_bounds[index]), int(eff_bounds[index + 1])
            if eff_completed is None:
                completed = high - low
            else:
                completed = int(np.count_nonzero(eff_completed[low:high]))
            slots = int(stacked.bounds[index + 1] - stacked.bounds[index])
            replica.pending_completed += completed
            replica.pending_failed += slots - completed

        # Overlay maintenance: replicas whose overlays share a stacked
        # maintenance block (array-native NEWSCAST) run their rounds as
        # one fused pass; standalone overlays maintain themselves.  Each
        # replica's randomness still comes from its own stream either way.
        fused: Dict[int, tuple] = {}
        for replica in self._replicas:
            block = getattr(replica.overlay, "maintenance_block", None)
            if block is None:
                replica.overlay.after_cycle(replica.overlay_rng)
            else:
                fused.setdefault(id(block), (block, []))[1].append(
                    (replica.overlay, replica.overlay_rng)
                )
        for block, pairs in fused.values():
            block.after_cycle_stacked(pairs)

        if self._cycle_index % self._record_every:
            return False
        self._flush_records()
        return True

    def run_cycles(self, run_cycle: Callable[[], Any], cycles: int) -> None:
        """Call ``run_cycle`` ``cycles`` times, then record the final cycle.

        ``run_cycle`` is the entry point's own method, so every cycle of
        a run passes through the public ``run_cycle``.  With
        ``record_every > 1`` the final executed cycle is always recorded,
        so each trace's ``final`` reflects the end of the run.
        """
        require_non_negative_int(cycles, "cycles")
        for _ in range(cycles):
            run_cycle()
        if self._replicas[0].trace.final.cycle != self._cycle_index:
            self._flush_records()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _live_rows(self, index: int) -> np.ndarray:
        """Sorted local rows of one replica's participants, cached."""
        replica = self._replicas[index]
        if replica.live_rows is None:
            base = index * self._stride
            replica.live_rows = self._participant_mask[base : base + replica.members].nonzero()[0]
        return replica.live_rows

    def _participants_local(self, index: int) -> np.ndarray:
        """Sorted participant ids of one replica, cached."""
        replica = self._replicas[index]
        if replica.participants_cache is None:
            rows = self._live_rows(index)
            replica.participants_cache = (
                rows if replica.member_ids is None else replica.member_ids[rows]
            )
        return replica.participants_cache

    def _estimates(self, index: int) -> np.ndarray:
        """One replica's participant estimates, gathered a row block at a time."""
        rows = self._live_rows(index)
        base = index * self._stride
        estimate = self._function.estimate_array
        if not rows.size:
            return np.empty(0, dtype=np.float64)
        if rows.size == self._replicas[index].members:
            # Before any crash the participants are one contiguous range.
            return estimate(self._states[base : base + rows.size])
        estimates = np.empty(rows.size, dtype=np.float64)
        for block in state_row_blocks(rows.size, self._width):
            estimates[block] = estimate(self._states[base + rows[block]])
        return estimates

    def _flush_records(self) -> None:
        for index, replica in enumerate(self._replicas):
            estimates = self._estimates(index)
            mean, variance, minimum, maximum = estimate_statistics(estimates)
            replica.trace.add(
                CycleRecord(
                    cycle=self._cycle_index,
                    participant_count=int(estimates.size),
                    mean=mean,
                    variance=variance,
                    minimum=minimum,
                    maximum=maximum,
                    completed_exchanges=replica.pending_completed,
                    failed_exchanges=replica.pending_failed,
                )
            )
            replica.pending_completed = 0
            replica.pending_failed = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(replicas={self._count}, "
            f"stride={self._stride}, function={self._function.name}, "
            f"cycle={self._cycle_index})"
        )


class ReplicatedCycleSimulator(StackedCycleEngine):
    """Run ``R`` independent repetitions as one stacked tensor simulation.

    Parameters are those of :class:`StackedCycleEngine` but
    ``reachability``, which only the ``R = 1`` entry takes; there must be
    at least one replica.
    """

    # __init__ and run_cycle are defined here, and on the R=1 entry,
    # rather than inherited: each entry point then has its own function
    # objects for callers (and tracers) that tell the two apart.
    def __init__(
        self,
        replicas: Sequence[ReplicaConfig],
        function: AggregationFunction,
        transport: TransportModel = PERFECT_TRANSPORT,
        record_every: int = 1,
    ) -> None:
        if not replicas:
            raise ConfigurationError("need at least one replica")
        super().__init__(replicas, function, transport, record_every, None)

    # Views are made on demand and the engine keeps none: a view holds its
    # engine, so a kept list would make a reference cycle, and a finished
    # run would wait for the cyclic garbage collector instead of being
    # freed as its last reference goes.
    def views(self) -> List["ReplicaView"]:
        """Per-replica facades mirroring the serial simulator API."""
        return [ReplicaView(self, index) for index in range(self._count)]

    def view(self, replica: int) -> "ReplicaView":
        """The facade of one replica (negative indices count from the end)."""
        return ReplicaView(self, range(self._count)[replica])

    def run(self, cycles: int) -> List[SimulationTrace]:
        """Run ``cycles`` cycles across every replica; return the traces."""
        self.run_cycles(self.run_cycle, cycles)
        return self.traces()

    def run_cycle(self) -> None:
        """Execute one full cycle for every replica in stacked form."""
        self.step(self.views())


class ReplicaView:
    """One run of the stacked engine, wearing the reference simulator API.

    Failure models, experiment plumbing and post-processing helpers
    (``trace``, ``state_array()``, ``participant_ids()``, membership
    operations...) drive a view exactly as they drive a
    :class:`~repro.simulator.cycle_sim.CycleSimulator` — which is what
    lets stateful failure models act on each replica through the
    identical public surface, and what lets figure code collect
    per-replica results without knowing about the block.
    """

    def __init__(self, engine: StackedCycleEngine, index: int) -> None:
        self._engine = engine
        self._index = index

    # -- identification ------------------------------------------------
    @property
    def overlay(self) -> OverlayProvider:
        """The replica's own overlay."""
        return self._replica.overlay

    @property
    def function(self) -> AggregationFunction:
        """The aggregation function in use."""
        return self._engine._function

    @property
    def trace(self) -> SimulationTrace:
        """The replica's per-cycle measurement trace."""
        return self._replica.trace

    @property
    def cycle_index(self) -> int:
        """Number of cycles executed so far."""
        return self._engine._cycle_index

    # -- internals shared by the accessors -----------------------------
    @property
    def _replica(self) -> _Replica:
        return self._engine._replicas[self._index]

    @property
    def _base(self) -> int:
        return self._index * self._engine._stride

    def _participants(self) -> np.ndarray:
        return self._engine._participants_local(self._index)

    def _row(self, node_id: int) -> int:
        """The block row of ``node_id``'s state, ``-1`` if it has none."""
        row = self._replica.row(node_id)
        return row if row < 0 else self._base + row

    # -- state accessors ------------------------------------------------
    def participant_ids(self) -> np.ndarray:
        """Identifiers of the nodes participating in the current epoch.

        A sorted, read-only int64 view of the engine's cached ids.
        """
        ids = self._participants().view()
        ids.flags.writeable = False
        return ids

    def is_participant(self, node_id: int) -> bool:
        """Whether ``node_id`` currently takes part in the protocol."""
        row = self._row(node_id)
        return row >= 0 and bool(self._engine._participant_mask[row])

    def state_array(self) -> np.ndarray:
        """The raw ``(participants, width)`` state block, in id order."""
        return self._engine._states[self._base + self._engine._live_rows(self._index)]

    # -- membership operations ------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Remove a node: its state becomes permanently inaccessible."""
        replica = self._replica
        row = self._row(node_id)
        if row >= 0:
            # Only a crash clears a row's bit, so a clear bit is a node
            # crashed before; a node without a row is forgotten by its
            # overlay, for which a second removal is a no-op.
            mask = self._engine._participant_mask
            if not mask[row]:
                return
            mask[row] = False
            replica.live_rows = None
            replica.participants_cache = None
        replica.overlay.on_node_removed(node_id)

    def add_node(self) -> int:
        """Add a brand-new node to this run's overlay and return its identifier.

        The node waits for the next epoch, as on the reference engine.
        """
        replica = self._replica
        node_id = replica.next_node_id
        replica.next_node_id += 1
        replica.overlay.on_node_added(node_id, replica.membership_rng)
        return node_id

    def override_values(self, node_ids: Sequence[int], values: Any) -> None:
        """Re-assert local values at selected participants, mid-epoch.

        The batched form of
        :meth:`~repro.simulator.cycle_sim.CycleSimulator.override_values`:
        one ``initial_state_array`` encode plus one scatter.  The codec
        contract (array encoding bit-identical to the scalar
        ``initial_state``) keeps the two engines in lockstep.
        """
        engine = self._engine
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.size == 0:
            return
        rows = self._replica.rows(ids) + self._base
        live = rows >= self._base
        live[live] = engine._participant_mask[rows[live]]
        if not live.all():
            raise SimulationError(f"node {int(ids[np.argmin(live)])} is not participating")
        encoded = engine._function.initial_state_array(
            np.asarray(values, dtype=np.float64)
        )
        if encoded.shape[0] != ids.size:
            raise ConfigurationError(
                f"override_values got {ids.size} nodes but "
                f"{encoded.shape[0]} value rows"
            )
        engine._states[rows] = encoded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(replica={self._index}, "
            f"function={self._engine._function.name}, "
            f"participants={self._participants().size}, "
            f"cycle={self._engine._cycle_index})"
        )
