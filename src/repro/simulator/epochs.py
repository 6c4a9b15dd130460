"""Epoch orchestration: the paper's *practical protocol*, end to end.

The building blocks have lived in :mod:`repro.core` since the seed —
per-node epoch state machines (:class:`~repro.core.epoch.EpochTracker`),
multi-leader self-election (:class:`~repro.core.count.LeaderElection`),
and the map-based COUNT merge — but nothing drove them through a full
adaptive run.  This module adds that layer: the :class:`EpochDriver`
executes consecutive epochs of the size-monitoring protocol of Sections
4.1/4.3/5 on top of either cycle engine:

1. **Epoch synchronisation.**  Every node tracks the epoch it belongs
   to.  The reference driver keeps one real
   :class:`~repro.core.epoch.EpochTracker` per node and feeds it
   ``observe_epoch`` calls; the fast-path driver reproduces exactly those
   semantics as one batched array pass over a per-node epoch-id vector
   (advance only forward, reset the cycle counter, count fresh joiners
   and multi-epoch jumps).  Nodes that joined mid-epoch through churn
   participate from the next epoch on, matching the paper's rule.
2. **Leader election.**  At every epoch start each alive node elects
   itself with ``P_lead = C / N̂`` via
   :meth:`~repro.core.count.LeaderElection.elect_batch` (bit-identical
   to the scalar loop, one generator call).
3. **The epoch run.**  γ cycles (``cycles_per_epoch``, derivable from a
   target accuracy through :func:`epoch_config_for_accuracy`) of the
   map-based COUNT: dict states on the reference engine
   (:class:`~repro.core.count.CountMapFunction` semantics), a dense
   ``(nodes, 2·leaders)`` block on the vectorised engine
   (:class:`~repro.core.count.CountArrayFunction`) — the merges are
   bit-identical, so both engines hold the same maps from the same seed.
4. **End-of-epoch reduction.**  Every surviving node reduces its map
   with the trimmed-mean rule of Section 7.3; both drivers share the
   batched :func:`~repro.core.count.count_estimates_from_matrix`, so the
   per-epoch size estimates are bit-identical across engines.
5. **Feedback.**  The epoch's estimate is fed back into the election
   (``update_estimate``), closing the adaptive loop.  An epoch that
   reports nothing — no leader elected itself, or every map diverged —
   carries the previous estimate forward deterministically and is
   recorded as *dry* in the trace.

Epoch identifiers follow the nominal schedule of
:class:`~repro.core.epoch.EpochConfig`: executing an epoch advances the
clock by γ·δ, and the next identifier is ``epoch_for_time`` of the new
clock, so configurations with ``epoch_length`` shorter than γ·δ skip
identifiers exactly as the paper's epidemic synchronisation allows — the
drivers record how many nodes jumped more than one epoch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from ..common.errors import ConfigurationError, SimulationError
from ..common.rng import RandomSource
from ..common.validation import require_trim_fraction
from ..core.count import (
    CountArrayFunction,
    CountMapFunction,
    LeaderElection,
    count_estimates_from_matrix,
    encode_count_maps,
)
from ..core.epoch import EpochConfig, EpochTracker, cycles_for_accuracy
from ..core.functions import AverageFunction
from ..topology.base import OverlayProvider
from .failures import FailureModel
from .metrics import SimulationTrace
from .transport import PERFECT_TRANSPORT, TransportModel

__all__ = [
    "EpochRecord",
    "EpochedRunResult",
    "EpochDriver",
    "epoch_config_for_accuracy",
]

#: Per-epoch failure injection: a shared stateless model, or a factory
#: called with the epoch identifier to build a fresh model per epoch
#: (needed by models with per-run state such as ``SuddenDeathModel``).
FailureFactory = Union[FailureModel, Callable[[int], Optional[FailureModel]], None]


def epoch_config_for_accuracy(
    accuracy: float,
    convergence_factor: float = PUSH_PULL_CONVERGENCE_FACTOR,
    cycle_length: float = 1.0,
    epoch_length: Optional[float] = None,
) -> EpochConfig:
    """Build an :class:`EpochConfig` whose γ meets a target accuracy.

    Applies the rule of Section 4.5 through
    :func:`~repro.core.epoch.cycles_for_accuracy`: γ cycles shrink the
    expected variance to ``accuracy`` times the initial one given the
    overlay's per-cycle ``convergence_factor`` (default: the ``1/(2√e)``
    of sufficiently random overlays).
    """
    return EpochConfig(
        cycle_length=cycle_length,
        cycles_per_epoch=cycles_for_accuracy(accuracy, convergence_factor),
        epoch_length=epoch_length,
    )


@dataclass(frozen=True)
class EpochRecord:
    """Everything one epoch contributed to the adaptive run's trace.

    Attributes
    ----------
    epoch_id:
        The epoch identifier (may skip values when ``epoch_length`` is
        shorter than γ·δ).
    leader_count:
        Number of nodes that elected themselves for this epoch.
    lead_probability:
        The ``P_lead`` the election used (``C / N̂`` capped at 1).
    participant_count:
        Alive nodes that started the epoch.
    joined_count:
        Nodes synchronised into their *first* epoch here (fresh joiners).
    advanced_count:
        Previously participating nodes that advanced to this epoch.
    skipped_sync_count:
        Nodes that jumped more than one epoch forward in this
        synchronisation pass.
    cycles:
        γ — cycles executed within the epoch.
    dry:
        Whether the epoch reported nothing (zero leaders, or no node held
        a finite estimate) and the previous estimate was carried forward.
    raw_estimate:
        The size estimate this epoch's own reduction produced (``None``
        on dry epochs).
    size_estimate:
        The estimate adopted after the epoch — ``raw_estimate``, or the
        carried-forward previous estimate on dry epochs.
    min_estimate / max_estimate:
        Extremes of the finite per-node size estimates (NaN when dry).
    finite_reporters:
        Number of surviving nodes whose reduced estimate was finite.
    trace:
        The epoch's per-cycle simulation trace (only kept when the driver
        was built with ``keep_cycle_traces=True``).
    """

    epoch_id: int
    leader_count: int
    lead_probability: float
    participant_count: int
    joined_count: int
    advanced_count: int
    skipped_sync_count: int
    cycles: int
    dry: bool
    raw_estimate: Optional[float]
    size_estimate: float
    min_estimate: float
    max_estimate: float
    finite_reporters: int
    trace: Optional[SimulationTrace] = None


@dataclass
class EpochedRunResult:
    """Trace of a multi-epoch adaptive COUNT run."""

    config: EpochConfig
    concurrent_target: float
    initial_estimate: float
    records: List[EpochRecord] = field(default_factory=list)

    @property
    def final_estimate(self) -> float:
        """The size estimate after the last executed epoch."""
        if not self.records:
            return self.initial_estimate
        return self.records[-1].size_estimate

    def estimates(self) -> List[float]:
        """Adopted size estimate after each epoch, in execution order."""
        return [record.size_estimate for record in self.records]

    def dry_epochs(self) -> List[int]:
        """Identifiers of epochs that reported nothing."""
        return [record.epoch_id for record in self.records if record.dry]

    def sync_summary(self) -> Dict[str, int]:
        """Aggregate epidemic-synchronisation counters over the whole run."""
        return {
            "joined": sum(record.joined_count for record in self.records),
            "advanced": sum(record.advanced_count for record in self.records),
            "skipped": sum(record.skipped_sync_count for record in self.records),
        }


class EpochDriver:
    """Run the adaptive multi-epoch COUNT protocol over a persistent overlay.

    Parameters
    ----------
    overlay:
        The overlay network; it persists across epochs, so NEWSCAST cache
        state and membership churn carry over exactly as they would in a
        long-running deployment.
    election:
        The :class:`~repro.core.count.LeaderElection` holding ``C`` and
        the running size estimate ``N̂`` (mutated by the feedback loop).
    epoch_config:
        Timing parameters (γ, δ, Δ); see :func:`epoch_config_for_accuracy`.
    rng:
        Root randomness; epoch ``e`` uses the child streams
        ``rng.child("election", e)`` and ``rng.child("epoch", e)``, so the
        reference and vectorised drivers draw identically from one seed.
    transport / failure_factory:
        Communication and node-failure models applied within every epoch;
        ``failure_factory`` may be a shared stateless model or a callable
        receiving the epoch id (for models with per-run state).
    discard_fraction:
        Trim fraction of the end-of-epoch reduction, in ``[0, 0.5)`` (the
        paper's 1/3).
    engine:
        The cycle engine every epoch runs on, named by the caller:
        ``"vectorized"`` (default, array COUNT rows) or ``"reference"``
        (dict COUNT maps and real per-node epoch trackers).  Every
        overlay supports both.
    record_every / keep_cycle_traces:
        Per-cycle metrics cadence inside each epoch, and whether each
        epoch's :class:`~repro.simulator.metrics.SimulationTrace` is kept
        on its record.
    """

    def __init__(
        self,
        overlay: OverlayProvider,
        election: LeaderElection,
        epoch_config: EpochConfig,
        rng: RandomSource,
        transport: TransportModel = PERFECT_TRANSPORT,
        failure_factory: FailureFactory = None,
        discard_fraction: float = 1.0 / 3.0,
        engine: str = "vectorized",
        record_every: int = 1,
        keep_cycle_traces: bool = False,
    ) -> None:
        if engine not in ("vectorized", "reference"):
            raise ConfigurationError(
                f"engine must be 'vectorized' or 'reference', got {engine!r}"
            )
        require_trim_fraction(discard_fraction, "discard_fraction")
        self._overlay = overlay
        self._election = election
        self._config = epoch_config
        self._rng = rng
        self._transport = transport
        self._failure_factory = failure_factory
        self._discard_fraction = discard_fraction
        self._engine = engine
        self._record_every = record_every
        self._keep_cycle_traces = keep_cycle_traces

        self._time = 0.0
        self._next_epoch_id = 0
        self._estimate = election.estimated_size
        # Epoch-synchronisation state: real per-node EpochTrackers on the
        # reference driver, one packed epoch-id vector on the fast path.
        self._trackers: Dict[int, EpochTracker] = {}
        self._node_epochs = np.full(0, -1, dtype=np.int64)
        self._result = EpochedRunResult(
            config=epoch_config,
            concurrent_target=election.concurrent_target,
            initial_estimate=election.estimated_size,
        )

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """Which cycle engine the driver runs epochs on."""
        return self._engine

    @property
    def overlay(self) -> OverlayProvider:
        """The overlay shared by every epoch."""
        return self._overlay

    @property
    def election(self) -> LeaderElection:
        """The leader election carrying the adaptive size estimate."""
        return self._election

    @property
    def result(self) -> EpochedRunResult:
        """The trace accumulated so far (grows as epochs execute)."""
        return self._result

    @property
    def trackers(self) -> Dict[int, EpochTracker]:
        """Per-node epoch state machines (reference driver only)."""
        return self._trackers

    def node_epoch_ids(self) -> Dict[int, int]:
        """Current per-node epoch membership, engine-independent."""
        if self._engine == "reference":
            return {
                node: tracker.current_epoch
                for node, tracker in self._trackers.items()
            }
        known = np.flatnonzero(self._node_epochs >= 0)
        return {int(node): int(self._node_epochs[node]) for node in known}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, epochs: int) -> EpochedRunResult:
        """Execute ``epochs`` consecutive epochs and return the trace."""
        if epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        for _ in range(epochs):
            self._run_epoch()
        return self._result

    def _run_epoch(self) -> EpochRecord:
        epoch_id = self._next_epoch_id
        alive = sorted(self._overlay.node_ids())
        if not alive:
            raise SimulationError(
                f"no nodes left alive at the start of epoch {epoch_id}"
            )
        joined, advanced, skipped = self._synchronise(epoch_id, alive)

        leaders = self._election.elect_batch(
            alive, self._rng.child("election", epoch_id)
        )
        lead_probability = self._election.lead_probability
        epoch_rng = self._rng.child("epoch", epoch_id)
        failure_model = self._build_failure_model(epoch_id)
        cycles = self._config.cycles_per_epoch

        if leaders.size == 0:
            # Zero-leader epoch: every map stays empty, so nodes gossip no
            # COUNT information — modelled by a zero placeholder state so
            # overlay maintenance, churn and crashes still advance exactly
            # as in a populated epoch.
            simulator = self._build_simulator(
                AverageFunction(), {node: 0.0 for node in alive}, epoch_rng, failure_model
            )
            simulator.run(cycles)
            per_node = None
        else:
            simulator = self._build_count_simulator(
                alive, leaders, epoch_rng, failure_model
            )
            simulator.run(cycles)
            per_node = self._reduce_epoch(simulator, leaders)

        survivors = simulator.participant_ids()
        self._advance_trackers(survivors, cycles, per_node)

        if per_node is not None and per_node.size:
            finite = per_node[np.isfinite(per_node)]
        else:
            finite = np.empty(0)
        if finite.size:
            raw_estimate: Optional[float] = float(np.mean(finite))
            minimum = float(np.min(finite))
            maximum = float(np.max(finite))
            self._estimate = raw_estimate
            self._election.update_estimate(raw_estimate)
        else:
            # Dry epoch: carry the previous estimate forward and leave the
            # election untouched, deterministically.
            raw_estimate = None
            minimum = math.nan
            maximum = math.nan

        record = EpochRecord(
            epoch_id=epoch_id,
            leader_count=int(leaders.size),
            lead_probability=lead_probability,
            participant_count=len(alive),
            joined_count=joined,
            advanced_count=advanced,
            skipped_sync_count=skipped,
            cycles=cycles,
            dry=raw_estimate is None,
            raw_estimate=raw_estimate,
            size_estimate=self._estimate,
            min_estimate=minimum,
            max_estimate=maximum,
            finite_reporters=int(finite.size),
            trace=simulator.trace if self._keep_cycle_traces else None,
        )
        self._result.records.append(record)

        # Advance the nominal clock by the epoch's γ·δ and derive the next
        # identifier from the schedule; a Δ shorter than γ·δ makes ids
        # skip, which the next synchronisation pass observes as jumps.
        self._time += cycles * self._config.cycle_length
        self._next_epoch_id = max(
            epoch_id + 1, self._config.epoch_for_time(self._time)
        )
        return record

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _synchronise(
        self, epoch_id: int, alive: Sequence[int]
    ) -> Tuple[int, int, int]:
        """Bring every alive node into ``epoch_id``; count the sync events.

        Returns ``(joined, advanced, skipped)``: nodes entering their
        first epoch, nodes advancing from an earlier one, and nodes that
        jumped more than one epoch at once.
        """
        if self._engine == "reference":
            for dead in set(self._trackers) - set(alive):
                del self._trackers[dead]
            joined = advanced = skipped = 0
            for node in alive:
                tracker = self._trackers.get(node)
                if tracker is None:
                    self._trackers[node] = EpochTracker(
                        config=self._config, current_epoch=epoch_id
                    )
                    joined += 1
                    continue
                previous = tracker.current_epoch
                if tracker.observe_epoch(epoch_id):
                    advanced += 1
                    if epoch_id - previous > 1:
                        skipped += 1
            return joined, advanced, skipped

        # Fast path: the observe_epoch state machine as one array pass —
        # advance forward only, reset the (implicit) cycle counters, and
        # classify fresh joiners (-1 sentinel) vs multi-epoch jumps.
        ids = np.asarray(alive, dtype=np.int64)
        highest = int(ids[-1])
        if highest >= self._node_epochs.size:
            grown = np.full(highest + 1, -1, dtype=np.int64)
            grown[: self._node_epochs.size] = self._node_epochs
            self._node_epochs = grown
        # Forget crashed nodes (the reference driver prunes their
        # trackers); crashed identifiers are never reused.
        alive_mask = np.zeros(self._node_epochs.size, dtype=bool)
        alive_mask[ids] = True
        self._node_epochs[~alive_mask] = -1
        previous = self._node_epochs[ids]
        fresh = previous < 0
        joined = int(np.count_nonzero(fresh))
        advanced = int(ids.size - joined)
        skipped = int(np.count_nonzero(~fresh & (epoch_id - previous > 1)))
        self._node_epochs[ids] = epoch_id
        return joined, advanced, skipped

    def _advance_trackers(
        self,
        survivors: Sequence[int],
        cycles: int,
        per_node: Optional[np.ndarray],
    ) -> None:
        """Tick the reference driver's per-node state machines through the epoch."""
        if self._engine != "reference":
            return
        for position, node in enumerate(survivors):
            tracker = self._trackers.get(node)
            if tracker is None:
                continue
            for _ in range(cycles):
                tracker.complete_cycle()
            if per_node is not None:
                tracker.finish_epoch(float(per_node[position]))

    def _build_failure_model(self, epoch_id: int) -> Optional[FailureModel]:
        factory = self._failure_factory
        if factory is None or isinstance(factory, FailureModel):
            return factory
        return factory(epoch_id)

    def _build_simulator(
        self,
        function,
        initial_values,
        epoch_rng: RandomSource,
        failure_model: Optional[FailureModel],
    ):
        # Deferred import: this module is loaded by the package init
        # before make_simulator is defined.
        from . import make_simulator

        return make_simulator(
            overlay=self._overlay,
            function=function,
            initial_values=initial_values,
            rng=epoch_rng,
            transport=self._transport,
            failure_model=failure_model,
            record_every=self._record_every,
            engine=self._engine,
        )

    def _build_count_simulator(
        self,
        alive: Sequence[int],
        leaders: np.ndarray,
        epoch_rng: RandomSource,
        failure_model: Optional[FailureModel],
    ):
        leader_set = set(int(leader) for leader in leaders)
        if self._engine == "vectorized":
            function = CountArrayFunction(leaders)
            values = {
                node: (float(node) if node in leader_set else -1.0)
                for node in alive
            }
        else:
            function = CountMapFunction()
            values = {
                node: ({node: 1.0} if node in leader_set else {})
                for node in alive
            }
        return self._build_simulator(function, values, epoch_rng, failure_model)

    def _reduce_epoch(self, simulator, leaders: np.ndarray) -> np.ndarray:
        """Per-surviving-node size estimates through the shared batched reduction."""
        if self._engine == "vectorized":
            block = simulator.state_array()
            width = leaders.size
            values, mask = block[:, :width], block[:, width:]
        else:
            states = simulator.states()
            maps = [states[node] for node in simulator.participant_ids()]
            values, mask = encode_count_maps(maps, leaders)
        return count_estimates_from_matrix(values, mask, self._discard_fraction)
