"""Batched asynchronous engine for the full practical protocol.

Executing every request, response and timer as an individual Python
event would be faithful but unusable beyond a few hundred nodes.  This
module is the library's asynchronous engine: it keeps the paper's
asynchrony axes — per-node clock drift, message latencies, exchange
timeouts, message loss, epochs that start at different real times at
different nodes, and churn — while executing them as *batched* array
passes.

How it works
------------

Time advances in **windows** of one nominal cycle length δ (a slotted
time-wheel over the per-node timer population).  Within a window the
engine

1. collects every due per-node event — active-thread ticks at
   ``start + k·δ·rate_i`` and epoch restarts at ``start + k·Δ·rate_i``,
   where ``rate_i`` is the node's drifted clock rate — and sorts them
   into one global (time, kind, node) order;
2. draws, in batches aligned with that order, each tick's gossip peer
   (``select_peers_batch``) and, through
   :func:`~repro.simulator.transport.classify_async_exchanges`, its
   transport fate with the Section 4.2 timeout rule folded in, plus the
   physical delivery flag that lets late replies still carry epoch ids;
3. partitions the ordered event stream into conflict-free rounds with
   :func:`~repro.simulator.sampling.ordered_conflict_rounds` (an epoch
   restart is a self-pair, an exchange a node pair), so the sequential
   read-after-write semantics of a true event-at-a-time execution are
   preserved exactly while every round is applied as vectorised
   gather/merge/scatter passes;
4. applies the paper's epidemic epoch rules per round: a responder behind
   the initiator's epoch reports its current epoch and jumps forward
   before merging; an initiator behind its responder jumps on the stale
   notice (when the notice survives transport and timeout) and skips the
   merge; lost responses update only the responder — the conservation-
   violating case of Figure 7(b).

What the protocol state *is* is delegated to an :class:`AsyncProtocol`
adapter, so the same engine runs the convergence-validation workloads and
the full adaptive size-monitoring protocol.  Rows are the
:class:`~repro.core.functions.AggregationFunction` array codec the cycle
engines use, which also merges them, so AVERAGE and COUNT are defined
once.  Adaptive COUNT's Section 5 loop — election, reduction, feedback,
dry-epoch carry-forward, records — is the
:class:`~repro.core.count.AdaptiveCount` ledger the cycle-engine
``EpochDriver`` runs on too; :class:`AsyncCountProtocol` only opens an
epoch on it when the epoch comes into existence, and the engine reports
the estimates of leaving nodes' rows to it.  An epoch nobody led is an ordinary epoch with width-0 rows.

Memory law
----------

Each live epoch holds one float64 block, ``rows × width`` (the epoch's
codec width: 1 for AVERAGE, 2·leaders for COUNT, 0 when nobody leads).
Row ``k`` belongs to the ``k``-th node that entered the epoch — by
restart, epidemic jump or joiner boot — and ``_row_of`` holds each
node's row beside ``_epoch_of``.  Rows are appended on entry and never
reused, and a block that must grow gains 1/16 of its rows as headroom,
in place, so a block has at most its entrants plus 1/16 as rows however
many ids churn has issued.  A block is dropped once its epoch has no
members and a newer one exists, so two are live around a boundary.
Every pass over a block — the entry encode, each conflict round's
per-epoch merge (a round's pairs are node-disjoint), and the estimates
behind reports, trace records and
:meth:`AsyncPracticalSimulator.current_estimates` — runs in
:func:`~repro.core.functions.state_row_blocks` of at most 256 KiB, so
its scratch is a few row blocks.  Only the timers, ``_epoch_of``,
``_row_of`` and the conflict scratch are indexed by id: 54 bytes per
issued id, grown by an eighth.  ``tests/test_async_state_blocks.py``
holds the law: blocks of at most entrants plus 1/16 rows after nine
churned epochs, and an epoch boundary that peaks at the new block plus
2.5 MB traced.  The ``adaptive-async`` figure at N = 10^5, one
repetition, three epochs, peaks at 232 MB RSS on a 2-vCPU Xeon (307 MB
when blocks had a row per id and passes took whole blocks).

The approximation relative to a true event-at-a-time execution is only
*where inside a window* concurrent effects interleave: exchanges are
ordered by initiation time rather than delivery time.  Everything coarser
— who exchanges with whom, which exchanges fail and how, when epochs
start, drift between nodes — is modelled exactly, which is why the
statistical validation against the cycle model in
``tests/test_async_engine.py`` holds.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError, SimulationError
from ..common.rng import RandomSource
from ..common.validation import require, require_non_negative_int, require_positive_int
from ..core.count import AdaptiveCount, LeaderElection
from ..core.epoch import EpochConfig
from ..core.functions import AggregationFunction, AverageFunction, state_row_blocks
from ..topology.base import OverlayProvider
from ..topology.provider import require_joins
from .asynchrony import LAN, AsynchronyScenario
from .metrics import CycleRecord, SimulationTrace, estimate_statistics
from .sampling import conflict_scratch, ordered_conflict_rounds
from .transport import OUTCOME_COMPLETED, OUTCOME_DROPPED, classify_async_exchanges

__all__ = [
    "AsyncProtocol",
    "AsyncAverageProtocol",
    "AsyncCountProtocol",
    "AsyncPracticalSimulator",
    "build_async_average",
    "build_async_count",
]

# Event kinds in the per-window stream; the numeric order is the
# deterministic tie-break at equal times (boot < restart < tick).
_KIND_START = 0
_KIND_RESTART = 1
_KIND_TICK = 2

#: A block that must grow for new entrants also gains room for 1/16 of
#: the rows it already holds, so appends are amortised and a block never
#: has more rows than its entrants plus 1/16.
_ROW_HEADROOM = 16


def _require_node_id(node_id: int) -> None:
    if node_id < 0:
        raise ConfigurationError(f"node ids are non-negative, got {node_id}")


class AsyncProtocol(abc.ABC):
    """Adapter giving the asynchronous engine its protocol semantics.

    The engine owns node timers, epochs, membership and exchange
    plumbing; the adapter owns what a state row *means*: how fresh rows
    look when nodes enter an epoch, how two rows merge, and what happens
    to a node's row when it finishes (or abandons) an epoch.  Rows are
    the array codec of the epoch's
    :class:`~repro.core.functions.AggregationFunction` (:meth:`codec`),
    which also supplies the merge rule.
    """

    @abc.abstractmethod
    def begin_epoch(self, epoch_id: int, alive_ids: np.ndarray, rng: RandomSource) -> int:
        """Called once when ``epoch_id`` first comes into existence.

        ``alive_ids`` is the alive population at that moment (the pool a
        leader election draws from).  Returns the epoch's state width.
        """

    @abc.abstractmethod
    def codec(self, epoch_id: int) -> AggregationFunction:
        """The array codec of ``epoch_id``'s rows."""

    @abc.abstractmethod
    def enter_rows(self, epoch_id: int, node_ids: np.ndarray) -> np.ndarray:
        """Fresh state rows for ``node_ids`` entering ``epoch_id``."""

    def merge_rows(
        self, epoch_id: int, initiator_rows: np.ndarray, responder_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The push–pull merge for same-epoch exchanges: the codec's."""
        return self.codec(epoch_id).merge_arrays(initiator_rows, responder_rows)

    def estimate_rows(self, epoch_id: int, rows: np.ndarray) -> np.ndarray:
        """Per-row scalar estimates (NaN/inf allowed): the codec's."""
        return self.codec(epoch_id).estimate_array(rows)

    @abc.abstractmethod
    def report(self, epoch_id: int, estimates: np.ndarray, jumped: bool) -> None:
        """Nodes finished ``epoch_id``; ``estimates`` are their rows' :meth:`estimate_rows`.

        ``jumped``: they left by epidemic sync.
        """


class AsyncAverageProtocol(AsyncProtocol):
    """Plain AVERAGE with per-epoch restarts from fresh local values.

    Node ids are non-negative; a node without a value enters with 0.0.
    """

    _AVERAGE = AverageFunction()

    def __init__(self, values: Mapping[int, float]) -> None:
        if values:
            _require_node_id(min(values))
        capacity = max(values) + 1 if values else 0
        self._values = np.zeros(capacity, dtype=np.float64)
        for node, value in values.items():
            self._values[node] = float(value)
        #: Estimates reported per finished epoch (for tests and analysis).
        self.epoch_estimates: Dict[int, List[float]] = {}

    def value_of(self, node_id: int) -> float:
        _require_node_id(node_id)
        if node_id < self._values.size:
            return float(self._values[node_id])
        return 0.0

    def set_value(self, node_id: int, value: float) -> None:
        """Change a node's local value (picked up at its next epoch entry)."""
        _require_node_id(node_id)
        if node_id >= self._values.size:
            grown = np.zeros(max(node_id + 1, 2 * self._values.size), dtype=np.float64)
            grown[: self._values.size] = self._values
            self._values = grown
        self._values[node_id] = float(value)

    def begin_epoch(self, epoch_id: int, alive_ids: np.ndarray, rng: RandomSource) -> int:
        return 1

    def codec(self, epoch_id: int) -> AverageFunction:
        return self._AVERAGE

    def enter_rows(self, epoch_id: int, node_ids: np.ndarray) -> np.ndarray:
        if node_ids.size and int(node_ids.max()) >= self._values.size:
            self.set_value(int(node_ids.max()), 0.0)
        return self._AVERAGE.initial_state_array(self._values[node_ids])

    def report(self, epoch_id: int, estimates: np.ndarray, jumped: bool) -> None:
        self.epoch_estimates.setdefault(epoch_id, []).extend(estimates.tolist())


class AsyncCountProtocol(AdaptiveCount, AsyncProtocol):
    """Multi-leader adaptive COUNT (Section 5) for the asynchronous engine.

    The loop is the :class:`~repro.core.count.AdaptiveCount` ledger this
    adapter extends: it supplies each epoch's codec, the per-row trimmed
    mean (:meth:`estimate_rows`), the feedback, the dry-epoch
    carry-forward and :meth:`epoch_records`, and nodes report their
    estimates to it as they leave an epoch.  The adapter only opens an epoch when it comes
    into existence — every then-alive node self-elects on the epoch's
    ``"election"`` child stream — and encodes entering nodes.
    """

    def begin_epoch(self, epoch_id: int, alive_ids: np.ndarray, rng: RandomSource) -> int:
        return self.open_epoch(epoch_id, alive_ids, rng.child("election")).state_width()

    def enter_rows(self, epoch_id: int, node_ids: np.ndarray) -> np.ndarray:
        codec = self.codec(epoch_id)
        return codec.initial_state_array(codec.leader_values(node_ids))


class AsyncPracticalSimulator:
    """Windowed asynchronous simulator of the practical protocol.

    Parameters
    ----------
    overlay:
        Peer sampling service (any overlay: peers are drawn through
        ``select_peers_batch``).  One overlay maintenance round
        (``after_cycle``) runs per window, so NEWSCAST membership gossip
        proceeds alongside aggregation exactly as in the cycle engines.
    protocol:
        The :class:`AsyncProtocol` adapter (AVERAGE or adaptive COUNT).
    epoch_config:
        Timing parameters δ, γ, Δ — all interpreted in *node-local* time
        and stretched per node by its drifted clock rate.
    rng:
        Root randomness; drift, phases, peer selection, transport,
        per-epoch election and per-window churn draw from named child
        streams.
    scenario:
        The :class:`~repro.simulator.asynchrony.AsynchronyScenario`: its
        latency and timeout (scaled by δ), message loss, clock drift (each
        node's rate is uniform in ``[1 - drift, 1 + drift]``) and churn
        per window.
    record_every:
        Cadence (in windows) of the cycle-equivalent trace records.
    """

    def __init__(
        self,
        overlay: OverlayProvider,
        protocol: AsyncProtocol,
        epoch_config: EpochConfig,
        rng: RandomSource,
        scenario: AsynchronyScenario = LAN,
        record_every: int = 1,
    ) -> None:
        require_positive_int(record_every, "record_every")
        self._overlay = overlay
        self._protocol = protocol
        self._config = epoch_config
        self._delay_model = scenario.delay_model(epoch_config.cycle_length)
        self._transport = scenario.transport()
        self._drift = scenario.clock_drift
        self._churn = scenario.churn_per_window
        if self._churn > 0:
            require_joins(overlay, f"churn_per_window={self._churn}")
        self._rng = rng
        self._selection_rng = rng.child("selection")
        self._transport_rng = rng.child("transport")
        self._overlay_rng = rng.child("overlay")
        self._drift_rng = rng.child("drift")
        self._phase_rng = rng.child("phase")
        self._record_every = record_every

        node_ids = np.sort(overlay.node_ids())
        if node_ids.size == 0:
            raise ConfigurationError("the overlay has no nodes")
        self._capacity = int(node_ids[-1]) + 1
        self._next_node_id = self._capacity

        self._alive = np.zeros(self._capacity, dtype=bool)
        self._rates = np.ones(self._capacity, dtype=np.float64)
        self._start_time = np.zeros(self._capacity, dtype=np.float64)
        self._next_tick = np.full(self._capacity, np.inf, dtype=np.float64)
        self._next_restart = np.full(self._capacity, np.inf, dtype=np.float64)
        # The one per-node epoch state: the epoch a node is in, -1 for none
        # (a node is active, i.e. in some epoch, iff its entry is >= 0),
        # and its row in that epoch's state block.
        self._epoch_of = np.full(self._capacity, -1, dtype=np.int64)
        self._row_of = np.full(self._capacity, -1, dtype=np.int64)
        self._scratch = conflict_scratch(self._capacity)
        # Per-window flag: nodes whose pending restart event was voided by
        # an epidemic jump re-anchoring their schedule.
        self._restart_suppressed = np.zeros(self._capacity, dtype=bool)

        self._alive[node_ids] = True
        self._rates[node_ids] = self._draw_rates(self._drift_rng, node_ids.size)
        phases = self._phase_rng.generator.uniform(
            0.0, epoch_config.cycle_length, node_ids.size
        )
        self._next_tick[node_ids] = phases * self._rates[node_ids]
        self._next_restart[node_ids] = (
            epoch_config.effective_epoch_length * self._rates[node_ids]
        )

        # Each epoch's state block: one row per node that entered it, in
        # entry order; the first ``_entrants[epoch]`` rows are in use.
        self._epoch_states: Dict[int, np.ndarray] = {}
        self._entrants: Dict[int, int] = {}
        self._newest_epoch = -1

        self._now = 0.0
        self._window_end = 0.0
        self._window_index = 0
        self._last_recorded = -1
        self._completed_at_record = 0
        self._failed_at_record = 0
        self.trace = SimulationTrace()
        #: Exchange and synchronisation counters for tests and reports.
        self.statistics: Dict[str, int] = {
            "ticks": 0,
            "no_peer": 0,
            "dropped": 0,
            "completed": 0,
            "response_lost": 0,
            "stale_refused": 0,
            "restarts": 0,
            "sync_jumps": 0,
            "skipped_epochs": 0,
            "activations": 0,
        }

        # Every initial node boots at t=0, so cycle 0 is recorded on
        # initialised states, mirroring the cycle engines.
        self._activate(node_ids)
        self._record_window(0)

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated global time."""
        return self._now

    @property
    def window_index(self) -> int:
        """Number of δ-windows executed so far."""
        return self._window_index

    @property
    def overlay(self) -> OverlayProvider:
        return self._overlay

    @property
    def protocol(self) -> AsyncProtocol:
        return self._protocol

    @property
    def epoch_config(self) -> EpochConfig:
        return self._config

    def alive_ids(self) -> np.ndarray:
        """Identifiers of alive (booted or waiting) nodes."""
        return np.flatnonzero(self._alive)

    def active_ids(self) -> np.ndarray:
        """Identifiers of nodes currently participating in some epoch."""
        return np.flatnonzero(self._epoch_of >= 0)

    def epoch_of(self, node_id: int) -> int:
        """The epoch ``node_id`` currently participates in (-1 when none)."""
        if not 0 <= node_id < self._capacity:
            return -1
        return int(self._epoch_of[node_id])

    def active_epochs(self) -> List[int]:
        """Epochs that currently have members, oldest first."""
        return np.unique(self._epoch_of[self._epoch_of >= 0]).tolist()

    def epoch_member_ids(self, epoch_id: int) -> np.ndarray:
        """Identifiers of the nodes currently inside ``epoch_id``."""
        return np.flatnonzero(self._epoch_of == epoch_id)

    def current_estimates(self) -> np.ndarray:
        """Estimates of the nodes in the *dominant* (most populated) epoch."""
        epoch = self._dominant_epoch()
        if epoch is None:
            return np.empty(0, dtype=np.float64)
        return self._estimates(epoch, self.epoch_member_ids(epoch))

    def clock_rate(self, node_id: int) -> float:
        """The drifted clock rate of a node (1.0 = perfect clock)."""
        if not 0 <= node_id < self._next_node_id:
            raise SimulationError(f"unknown node {node_id}")
        return float(self._rates[node_id])

    # ------------------------------------------------------------------
    # Membership (churn)
    # ------------------------------------------------------------------
    def crash_nodes(self, node_ids: Sequence[int]) -> None:
        """Crash nodes: their state vanishes without a report.

        Unknown and dead ids are ignored, and a repeated id crashes once;
        the overlay learns of each crash in input order.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        known = (ids >= 0) & (ids < self._capacity)
        known[known] = self._alive[ids[known]]
        ids = ids[known]
        _, first = np.unique(ids, return_index=True)
        crashed = ids[np.sort(first)]
        self._alive[crashed] = False
        self._next_tick[crashed] = np.inf
        self._next_restart[crashed] = np.inf
        self._epoch_of[crashed] = -1
        self._row_of[crashed] = -1
        for node_id in crashed.tolist():
            self._overlay.on_node_removed(node_id)

    def add_nodes(self, count: int, rng: RandomSource) -> List[int]:
        """Join fresh nodes; they wait for the next nominal epoch boundary.

        Mirrors the Section 4.2 join rule: a newcomer learns the overlay
        immediately (so NEWSCAST gossip spreads its descriptor) but only
        starts participating at the next epoch start, entering whatever
        epoch is newest at that moment.
        """
        require_non_negative_int(count, "count")
        joined: List[int] = []
        boundary = self._config.epoch_start_time(
            self._config.epoch_for_time(max(self._now, 0.0)) + 1
        )
        self._ensure_capacity(self._next_node_id + count - 1)
        for _ in range(count):
            node_id = self._next_node_id
            self._next_node_id += 1
            self._overlay.on_node_added(node_id, rng)
            self._alive[node_id] = True
            self._rates[node_id] = self._draw_rates(rng, 1)[0]
            self._start_time[node_id] = boundary
            phase = rng.uniform(0.0, self._config.cycle_length)
            self._next_tick[node_id] = boundary + phase * self._rates[node_id]
            self._next_restart[node_id] = (
                boundary
                + self._config.effective_epoch_length * self._rates[node_id]
            )
            joined.append(node_id)
        return joined

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, windows: int) -> SimulationTrace:
        """Execute ``windows`` δ-windows and return the trace."""
        require_non_negative_int(windows, "windows")
        for _ in range(windows):
            self._run_window()
        if self._last_recorded < self._window_index:
            self._record_window(self._window_index)
        return self.trace

    # ------------------------------------------------------------------
    # Internals: epochs
    # ------------------------------------------------------------------
    def _draw_rates(self, rng: RandomSource, count: int) -> np.ndarray:
        if self._drift <= 0.0:
            return np.ones(count, dtype=np.float64)
        return rng.generator.uniform(1.0 - self._drift, 1.0 + self._drift, count)

    def _ensure_capacity(self, node_id: int) -> None:
        if node_id < self._capacity:
            return
        new_capacity = max(node_id + 1, self._capacity + self._capacity // 8)

        def grow(array: np.ndarray, fill) -> np.ndarray:
            grown = np.full(new_capacity, fill, dtype=array.dtype)
            grown[: array.size] = array
            return grown

        self._alive = grow(self._alive, False)
        self._rates = grow(self._rates, 1.0)
        self._start_time = grow(self._start_time, 0.0)
        self._next_tick = grow(self._next_tick, np.inf)
        self._next_restart = grow(self._next_restart, np.inf)
        self._epoch_of = grow(self._epoch_of, -1)
        self._row_of = grow(self._row_of, -1)
        self._restart_suppressed = grow(self._restart_suppressed, False)
        self._scratch = conflict_scratch(new_capacity)
        self._capacity = new_capacity

    def _create_epoch(self, epoch_id: int) -> None:
        width = self._protocol.begin_epoch(
            epoch_id, np.flatnonzero(self._alive), self._rng.child("epoch", epoch_id)
        )
        self._epoch_states[epoch_id] = np.zeros((0, width), dtype=np.float64)
        self._entrants[epoch_id] = 0
        self._newest_epoch = max(self._newest_epoch, epoch_id)

    def _enter_epoch(self, epoch_id: int, nodes: np.ndarray) -> None:
        """Append fresh rows for ``nodes`` to ``epoch_id``'s block."""
        if epoch_id not in self._epoch_states:
            self._create_epoch(epoch_id)
        states = self._epoch_states[epoch_id]
        start = self._entrants[epoch_id]
        stop = start + nodes.size
        if stop > states.shape[0]:
            # In place: no view of a block outlives a pass, and realloc
            # remaps a large block instead of copying it beside itself.
            states.resize((stop + start // _ROW_HEADROOM, states.shape[1]), refcheck=False)
        for block in state_row_blocks(nodes.size, states.shape[1]):
            states[start + block.start : start + block.stop] = self._protocol.enter_rows(
                epoch_id, nodes[block]
            )
        self._entrants[epoch_id] = stop
        self._row_of[nodes] = np.arange(start, stop)
        self._epoch_of[nodes] = epoch_id

    def _enter_grouped(self, targets: np.ndarray, nodes: np.ndarray) -> None:
        for epoch in np.unique(targets):
            self._enter_epoch(int(epoch), nodes[targets == epoch])

    def _leave_epoch(self, nodes: np.ndarray, jumped: bool) -> None:
        # Reports only: the caller's next _enter_* moves their _epoch_of.
        epochs = self._epoch_of[nodes]
        for epoch in np.unique(epochs):
            if epoch < 0:
                continue
            leaving = nodes[epochs == epoch]
            epoch_id = int(epoch)
            self._protocol.report(epoch_id, self._estimates(epoch_id, leaving), jumped)

    def _estimates(self, epoch_id: int, nodes: np.ndarray) -> np.ndarray:
        """The protocol's estimates of ``nodes``' rows in ``epoch_id``, a row block at a time."""
        states = self._epoch_states[epoch_id]
        rows = self._row_of[nodes]
        estimates = np.empty(nodes.size, dtype=np.float64)
        for block in state_row_blocks(nodes.size, states.shape[1]):
            estimates[block] = self._protocol.estimate_rows(epoch_id, states[rows[block]])
        return estimates

    def _activate(self, nodes: np.ndarray) -> None:
        self.statistics["activations"] += int(nodes.size)
        self._enter_epoch(max(self._newest_epoch, 0), nodes)

    def _collect_garbage_epochs(self) -> None:
        for epoch in [epoch for epoch in self._epoch_states if epoch < self._newest_epoch]:
            if not (self._epoch_of == epoch).any():
                del self._epoch_states[epoch], self._entrants[epoch]

    def _dominant_epoch(self) -> Optional[int]:
        """The most populated epoch, the newest on ties (``None`` when empty)."""
        counts = np.bincount(self._epoch_of[self._epoch_of >= 0])
        if not counts.size:
            return None
        # Prefer the newer epoch on ties so records track progress.
        return int(counts.size - 1 - np.argmax(counts[::-1]))

    def _apply_churn(self) -> None:
        """Swap up to ``churn_per_window`` active nodes (one survives) for joiners."""
        rng = self._rng.child("window", self._window_index)
        active = self.active_ids()
        count = min(self._churn, max(0, active.size - 1))
        if count > 0:
            victims = active[rng.sample_indices(active.size, count)]
            self.crash_nodes(victims)
            self.add_nodes(count, rng)

    # ------------------------------------------------------------------
    # Internals: the window
    # ------------------------------------------------------------------
    def _run_window(self) -> None:
        delta = self._config.cycle_length
        t0 = self._now
        t1 = t0 + delta
        self._window_end = t1

        times: List[np.ndarray] = []
        nodes: List[np.ndarray] = []
        kinds: List[np.ndarray] = []

        # Boot events for joined nodes whose start falls here.
        active = self._epoch_of >= 0
        starting_mask = self._alive & ~active & (self._start_time < t1)
        starting = starting_mask.nonzero()[0]
        if starting.size:
            times.append(self._start_time[starting])
            nodes.append(starting)
            kinds.append(np.full(starting.size, _KIND_START, dtype=np.int64))
        runnable = active | starting_mask

        # Epoch restarts (a node's own periodic timer; at most a couple
        # per window since Δ ≥ δ in any sane configuration).
        while True:
            due = (runnable & (self._next_restart < t1)).nonzero()[0]
            if not due.size:
                break
            times.append(self._next_restart[due].copy())
            nodes.append(due)
            kinds.append(np.full(due.size, _KIND_RESTART, dtype=np.int64))
            self._next_restart[due] += (
                self._config.effective_epoch_length * self._rates[due]
            )

        # Active-thread ticks.
        while True:
            due = (runnable & (self._next_tick < t1)).nonzero()[0]
            if not due.size:
                break
            times.append(self._next_tick[due].copy())
            nodes.append(due)
            kinds.append(np.full(due.size, _KIND_TICK, dtype=np.int64))
            self._next_tick[due] += delta * self._rates[due]

        if times:
            all_times = np.concatenate(times)
            all_nodes = np.concatenate(nodes)
            all_kinds = np.concatenate(kinds)
            order = np.lexsort((all_nodes, all_kinds, all_times))
            self._restart_suppressed[:] = False
            self._process_events(all_times[order], all_nodes[order], all_kinds[order])

        self._now = t1
        self._window_index += 1
        self._overlay.after_cycle(self._overlay_rng)
        if self._churn:
            self._apply_churn()
        self._collect_garbage_epochs()
        if self._window_index % self._record_every == 0:
            self._record_window(self._window_index)

    def _process_events(
        self, times: np.ndarray, event_nodes: np.ndarray, event_kinds: np.ndarray
    ) -> None:
        del times  # ordering already encoded in the argument order
        total = event_nodes.size
        tick_positions = (event_kinds == _KIND_TICK).nonzero()[0]
        tick_count = tick_positions.size
        self.statistics["ticks"] += int(tick_count)

        peers = np.full(total, -1, dtype=np.int64)
        outcomes = np.zeros(total, dtype=np.uint8)
        delivered = np.zeros(total, dtype=bool)
        if tick_count:
            peers[tick_positions] = self._overlay.select_peers_batch(
                event_nodes[tick_positions], self._selection_rng.generator
            )
            # A reply that arrives after the initiator gave up is merge-wise
            # a lost response, yet its epoch id still reaches the initiator,
            # as it would in an event-at-a-time execution: hence both arrays.
            tick_outcomes, tick_delivered = classify_async_exchanges(
                self._transport, self._delay_model, self._transport_rng, tick_count
            )
            outcomes[tick_positions] = tick_outcomes
            delivered[tick_positions] = tick_delivered

        # An event takes part in the ordered conflict decomposition iff it
        # can touch state: boots and restarts always do (self-pairs);
        # ticks only when the peer is usable and the exchange was not
        # dropped outright.
        is_tick = event_kinds == _KIND_TICK
        peer_ok = (
            (peers >= 0)
            & (peers < self._capacity)
            & (peers != event_nodes)
        )
        # A peer that crashed or has not booted yet refuses the exchange
        # (the stale-cache / joining-node timeout of Section 4.2).
        peer_ok &= self._epoch_of[np.where(peer_ok, peers, 0)] >= 0
        usable = ~is_tick | (peer_ok & (outcomes != OUTCOME_DROPPED))
        self.statistics["no_peer"] += int(np.count_nonzero(is_tick & ~peer_ok))
        self.statistics["dropped"] += int(
            np.count_nonzero(is_tick & peer_ok & (outcomes == OUTCOME_DROPPED))
        )

        keep = usable.nonzero()[0]
        if not keep.size:
            return
        eff_nodes = event_nodes[keep]
        eff_kinds = event_kinds[keep]
        eff_outcomes = outcomes[keep]
        eff_delivered = delivered[keep]
        eff_peers = np.where(eff_kinds == _KIND_TICK, peers[keep], eff_nodes)

        rounds = ordered_conflict_rounds(
            eff_nodes, eff_peers, self._scratch, track_positions=True
        )
        for batch_nodes, batch_peers, positions in rounds:
            batch_kinds = eff_kinds[positions]

            boots = batch_nodes[batch_kinds == _KIND_START]
            if boots.size:
                self._activate(boots)

            restarts = batch_nodes[batch_kinds == _KIND_RESTART]
            if restarts.size:
                # Waiting nodes have no epoch yet (their first restart is
                # the boot event's job), and a node that jumped epochs
                # earlier in this window re-anchored its schedule — its
                # already-collected restart event is void.
                restarts = restarts[
                    (self._epoch_of[restarts] >= 0)
                    & ~self._restart_suppressed[restarts]
                ]
            if restarts.size:
                self.statistics["restarts"] += int(restarts.size)
                targets = self._epoch_of[restarts] + 1
                self._leave_epoch(restarts, jumped=False)
                self._enter_grouped(targets, restarts)

            tick_mask = batch_kinds == _KIND_TICK
            if not tick_mask.any():
                continue
            initiators = batch_nodes[tick_mask]
            responders = batch_peers[tick_mask]
            tick_outcomes = eff_outcomes[positions[tick_mask]]
            tick_delivered = eff_delivered[positions[tick_mask]]
            self._apply_exchanges(
                initiators, responders, tick_outcomes, tick_delivered
            )

    def _apply_exchanges(
        self,
        initiators: np.ndarray,
        responders: np.ndarray,
        outcomes: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        epochs_i = self._epoch_of[initiators]
        epochs_r = self._epoch_of[responders]

        # Responder behind: the request (which did arrive — dropped
        # exchanges never get here) carries a newer epoch id, so the
        # responder reports its old epoch and jumps before merging.
        behind = epochs_r < epochs_i
        if behind.any():
            jumping = responders[behind]
            targets = epochs_i[behind]
            self.statistics["sync_jumps"] += int(jumping.size)
            self.statistics["skipped_epochs"] += int(
                np.count_nonzero(targets - epochs_r[behind] > 1)
            )
            self._leave_epoch(jumping, jumped=True)
            self._enter_grouped(targets, jumping)
            self._reanchor_restart(jumping)
            epochs_r = np.where(behind, epochs_i, epochs_r)

        # Initiator behind: the responder answers with a stale-epoch
        # notice instead of a state; the initiator jumps iff the notice
        # is physically delivered — even *after* the timeout, as a late
        # notice would be in an event-at-a-time execution — and no merge
        # happens either way.  The exchange is refused, which the ledger
        # records as a failure.
        ahead = epochs_r > epochs_i
        if ahead.any():
            self.statistics["stale_refused"] += int(np.count_nonzero(ahead))
            noticed = ahead & delivered
            if noticed.any():
                jumping = initiators[noticed]
                targets = epochs_r[noticed]
                self.statistics["sync_jumps"] += int(jumping.size)
                self.statistics["skipped_epochs"] += int(
                    np.count_nonzero(targets - epochs_i[noticed] > 1)
                )
                self._leave_epoch(jumping, jumped=True)
                self._enter_grouped(targets, jumping)
                self._reanchor_restart(jumping)

        mergeable = ~ahead
        if not mergeable.any():
            return
        merge_initiators = initiators[mergeable]
        merge_responders = responders[mergeable]
        merge_outcomes = outcomes[mergeable]
        merge_epochs = epochs_r[mergeable]
        for epoch in np.unique(merge_epochs):
            epoch_id = int(epoch)
            in_epoch = merge_epochs == epoch
            rows_i = self._row_of[merge_initiators[in_epoch]]
            rows_r = self._row_of[merge_responders[in_epoch]]
            completed = merge_outcomes[in_epoch] == OUTCOME_COMPLETED
            states = self._epoch_states[epoch_id]
            # A round's pairs are node-disjoint, so its row blocks are too.
            for block in state_row_blocks(rows_i.size, states.shape[1]):
                block_i, block_r = rows_i[block], rows_r[block]
                new_i, new_r = self._protocol.merge_rows(
                    epoch_id, states[block_i], states[block_r]
                )
                # A lost (or timed-out) response updates only the responder;
                # the initiator never saw the reply.
                done = completed[block]
                states[block_i[done]] = new_i[done]
                states[block_r] = new_r
            self.statistics["completed"] += int(np.count_nonzero(completed))
            self.statistics["response_lost"] += int(
                np.count_nonzero(~completed)
            )

    def _reanchor_restart(self, nodes: np.ndarray) -> None:
        """Restart the epoch timer of nodes that jumped epochs epidemically.

        A node pulled into a newer epoch owes that epoch a full Δ of its
        local clock; keeping its stale periodic schedule would make its
        own restart fire almost immediately and push it *another* epoch
        ahead, escalating epoch identifiers epidemically far faster than
        Δ (observed as runaway epochs under drift).  Re-anchoring bounds
        the restart spread at ~drift·Δ instead of letting it accumulate.
        """
        self._next_restart[nodes] = (
            self._window_end
            + self._config.effective_epoch_length * self._rates[nodes]
        )
        self._restart_suppressed[nodes] = True

    # ------------------------------------------------------------------
    # Internals: trace records
    # ------------------------------------------------------------------
    def _record_window(self, window_index: int) -> None:
        epoch = self._dominant_epoch()
        if epoch is not None:
            members = self.epoch_member_ids(epoch)
            estimates = self._estimates(epoch, members)
            participant_count = int(members.size)
        else:
            estimates = np.empty(0, dtype=np.float64)
            participant_count = 0
        mean, variance, minimum, maximum = estimate_statistics(estimates)
        completed_total = self.statistics["completed"]
        failed_total = (
            self.statistics["dropped"]
            + self.statistics["response_lost"]
            + self.statistics["stale_refused"]
            + self.statistics["no_peer"]
        )
        self.trace.add(
            CycleRecord(
                cycle=window_index,
                participant_count=participant_count,
                mean=mean,
                variance=variance,
                minimum=minimum,
                maximum=maximum,
                completed_exchanges=completed_total - self._completed_at_record,
                failed_exchanges=failed_total - self._failed_at_record,
            )
        )
        self._completed_at_record = completed_total
        self._failed_at_record = failed_total
        self._last_recorded = window_index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncPracticalSimulator(nodes={int(np.count_nonzero(self._alive))}, "
            f"t={self._now:.2f}, epochs={self.active_epochs()})"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_async_average(
    overlay: OverlayProvider,
    values: Dict[int, float],
    rng: RandomSource,
    scenario: AsynchronyScenario = LAN,
    epoch_config: Optional[EpochConfig] = None,
    record_every: int = 1,
) -> Tuple[AsyncPracticalSimulator, AsyncAverageProtocol]:
    """An asynchronous AVERAGE run under the given scenario."""
    protocol = AsyncAverageProtocol(values)
    simulator = AsyncPracticalSimulator(
        overlay,
        protocol,
        epoch_config or EpochConfig(cycles_per_epoch=1_000_000),
        rng,
        scenario=scenario,
        record_every=record_every,
    )
    return simulator, protocol


def build_async_count(
    overlay: OverlayProvider,
    rng: RandomSource,
    scenario: AsynchronyScenario = LAN,
    epoch_config: Optional[EpochConfig] = None,
    concurrent_target: float = 20.0,
    initial_estimate: Optional[float] = None,
    record_every: int = 1,
) -> Tuple[AsyncPracticalSimulator, AsyncCountProtocol]:
    """The full asynchronous practical protocol: adaptive epoched COUNT."""
    size = overlay.size()
    election = LeaderElection(
        concurrent_target=concurrent_target,
        estimated_size=float(initial_estimate if initial_estimate is not None else size),
    )
    protocol = AsyncCountProtocol(election)
    simulator = AsyncPracticalSimulator(
        overlay,
        protocol,
        epoch_config or EpochConfig(),
        rng,
        scenario=scenario,
        record_every=record_every,
    )
    return simulator, protocol
