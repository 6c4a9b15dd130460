"""Plumbing shared by every figure reproduction.

Every figure of :mod:`repro.experiments.figures` is a record in one table,
run by one sweep loop: per swept point, a :class:`RunPlan` states what one
repetition does and :func:`repeat_simulations` runs the repetitions with
independent seeds, whose results the figure reduces to rows.  This module
holds the repetitive parts — plans, repeat helpers, seeding, value
distributions, and the two practical-protocol runs behind the adaptive
figures (:func:`run_epoched_count` on the cycle engines,
:func:`run_async_count` on the asynchronous one) — so a figure record
reads as a declarative description of the paper's experiment.

Runs use the one stacked array engine (:mod:`repro.simulator.replicated`):
a single run through :data:`~repro.simulator.make_simulator`, and the
repeats of a :class:`RunPlan` as one ``R``-replica simulation, each
bit-identical to its one-run :meth:`RunPlan.serial_run`.  Every
repetition runs in the calling process; an opaque ``make_run`` callable
runs once per repetition, in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..common.rng import RandomSource
from ..common.validation import require, require_non_negative_int
from ..core.count import LeaderElection, peak_initial_values
from ..core.epoch import EpochConfig
from ..core.functions import AggregationFunction, AverageFunction
from ..simulator import make_simulator
from ..simulator.async_engine import AsyncCountProtocol, build_async_count
from ..simulator.asynchrony import LAN, AsynchronyScenario
from ..simulator.epochs import EpochDriver, EpochedRunResult, FailureFactory
from ..simulator.failures import FailureModel
from ..simulator.metrics import SimulationTrace
from ..simulator.replicated import ReplicaConfig, ReplicatedCycleSimulator
from ..simulator.transport import PERFECT_TRANSPORT, TransportModel
from ..topology.generators import TopologySpec, build_overlay
from ..topology.replicated import ReplicatedStaticBlock

__all__ = [
    "uniform_initial_values",
    "peak_values_for_count",
    "run_epoched_count",
    "run_async_count",
    "RunPlan",
    "repeat_traces",
    "repeat_simulations",
]

T = TypeVar("T")


def uniform_initial_values(size: int, rng: RandomSource) -> np.ndarray:
    """Uniformly random local values on ``[0, 100)``, the generic AVERAGE workload.

    One batched generator call, returned as its float64 array (8 bytes
    per value, no Python float per node); element ``i`` equals the
    ``i``-th scalar ``rng.uniform(0, 100)`` draw (the generator consumes
    one double per value either way).
    """
    return rng.generator.uniform(0.0, 100.0, size)


def peak_values_for_count(size: int, peak_value: Optional[float] = None) -> List[float]:
    """The peak distribution used by COUNT (node 0 holds 1, or ``peak_value``)."""
    return peak_initial_values(size, peak_value=1.0 if peak_value is None else peak_value)


def run_epoched_count(
    topology: TopologySpec,
    size: int,
    epochs: int,
    rng: RandomSource,
    concurrent_target: float = 20.0,
    initial_estimate: Optional[float] = None,
    epoch_config: Optional[EpochConfig] = None,
    transport: TransportModel = PERFECT_TRANSPORT,
    failure_factory: FailureFactory = None,
    record_every: int = 1,
) -> EpochedRunResult:
    """Run the full practical protocol: adaptive multi-epoch COUNT.

    Builds the overlay, seeds a :class:`~repro.core.count.LeaderElection`
    with ``initial_estimate`` (default: the true size — pass a wrong
    value to watch the feedback loop correct it), and drives ``epochs``
    epochs through an :class:`~repro.simulator.epochs.EpochDriver`.  The
    returned :class:`~repro.simulator.epochs.EpochedRunResult` carries
    per-epoch size estimates, leader counts and synchronisation events.
    """
    overlay = build_overlay(topology, size, rng.child("topology"))
    election = LeaderElection(
        concurrent_target=concurrent_target,
        estimated_size=float(initial_estimate if initial_estimate is not None else size),
    )
    driver = EpochDriver(
        overlay=overlay,
        election=election,
        epoch_config=epoch_config or EpochConfig(),
        rng=rng.child("epochs"),
        transport=transport,
        failure_factory=failure_factory,
        record_every=record_every,
    )
    return driver.run(epochs)


def run_async_count(
    topology: TopologySpec,
    size: int,
    epochs: int,
    rng: RandomSource,
    scenario: AsynchronyScenario = LAN,
    concurrent_target: float = 20.0,
    initial_estimate: Optional[float] = None,
    epoch_config: Optional[EpochConfig] = None,
    record_every: int = 1,
) -> AsyncCountProtocol:
    """Run the full practical protocol asynchronously; return its protocol.

    The asynchronous counterpart of :func:`run_epoched_count`: NEWSCAST
    or static membership, per-epoch leader self-election with
    ``P_lead = C / N̂``, epochs driven by per-node drifted timers and
    synchronised epidemically, trimmed-mean reduction and adaptive
    feedback.  Runs ``epochs`` nominal epochs plus a cushion of
    cycle-equivalent windows so the final epoch boundary is crossed even
    by slow clocks — the cushion scales with the scenario's drift (a
    rate-``1+d`` clock reaches its ``k``-th restart ``k·Δ·d`` late) — and
    returns the
    :class:`~repro.simulator.async_engine.AsyncCountProtocol` carrying
    the per-epoch records (``epoch_records()``).
    """
    overlay = build_overlay(topology, size, rng.child("topology"))
    config = epoch_config or EpochConfig()
    simulator, protocol = build_async_count(
        overlay,
        rng.child("simulation"),
        scenario,
        epoch_config=config,
        concurrent_target=concurrent_target,
        initial_estimate=initial_estimate,
        record_every=record_every,
    )
    windows_per_epoch = int(math.ceil(config.effective_epoch_length / config.cycle_length))
    cushion = 3 + int(math.ceil(epochs * windows_per_epoch * scenario.clock_drift))
    simulator.run(epochs * windows_per_epoch + cushion)
    return protocol


#: A plan's ``values`` field: a static per-node sequence shared by every
#: repetition, or a factory drawing fresh values per repetition from the
#: run's ``child("values")`` stream.
ValuesSpec = Union[Sequence[float], Callable[[int, RandomSource], Sequence[float]]]


def _default_collect(simulator) -> SimulationTrace:
    return simulator.trace


@dataclass
class RunPlan:
    """Declarative description of one repeated cycle-simulation scenario.

    ``repeat_simulations`` can only run an opaque ``make_run`` callable
    once per repetition; it cannot *batch* it.  A plan states what one
    repetition does — topology, size, cycles, values, transport,
    failures, post-processing — so the repeat helper runs all
    repetitions as one stacked
    :class:`~repro.simulator.replicated.ReplicatedCycleSimulator`.
    :meth:`serial_run` runs one repetition on its own, from the same
    per-repetition child streams, so its result is bit-identical to that
    replica's.  Both run on the array engine, so the function must
    implement the array codec.

    Attributes
    ----------
    topology:
        The overlay specification, built per repetition from
        ``rng.child("topology")``.
    size:
        Number of nodes per repetition.
    cycles:
        Cycles to run.
    values:
        Initial local values: a static sequence, or a factory
        ``(size, rng) -> sequence`` fed ``rng.child("values")``.
    function_factory:
        Builds each run's aggregation function (default AVERAGE).
    transport:
        Communication failure model shared by all repetitions.
    failure_factory:
        Builds one *fresh* (stateful) failure model per repetition, or
        ``None`` for the benign scenario.
    record_every:
        Metrics cadence forwarded to the engines.
    collect:
        Post-processing applied to each finished simulator (or replica
        view); defaults to returning the trace.
    """

    topology: TopologySpec
    size: int
    cycles: int
    values: ValuesSpec
    function_factory: Callable[[], AggregationFunction] = AverageFunction
    transport: TransportModel = PERFECT_TRANSPORT
    failure_factory: Optional[Callable[[], Optional[FailureModel]]] = None
    record_every: int = 1
    collect: Callable = field(default=_default_collect)

    def __post_init__(self) -> None:
        require(
            self.failure_factory is None or callable(self.failure_factory),
            f"failure_factory must be a callable or None, got {self.failure_factory!r}",
        )

    # ------------------------------------------------------------------
    def resolve_values(self, rng: RandomSource) -> Union[np.ndarray, List[float]]:
        """One repetition's initial values (factory fed ``child("values")``).

        An array passes through as it is; any other sequence is copied
        into a list.
        """
        values = self.values
        if callable(values):
            values = values(self.size, rng.child("values"))
        return values if isinstance(values, np.ndarray) else list(values)

    def _failure_model(self) -> Optional[FailureModel]:
        return self.failure_factory() if self.failure_factory else None

    def serial_run(self, index: int, rng: RandomSource) -> T:
        """Run one repetition exactly as the historical closure path did."""
        overlay = build_overlay(self.topology, self.size, rng.child("topology"))
        simulator = make_simulator(
            overlay=overlay,
            function=self.function_factory(),
            initial_values=self.resolve_values(rng),
            rng=rng.child("simulation"),
            transport=self.transport,
            failure_model=self._failure_model(),
            record_every=self.record_every,
        )
        simulator.run(self.cycles)
        return self.collect(simulator)

    def build_replica_overlays(self, rngs: Sequence[RandomSource]) -> Tuple[List, object]:
        """Build every repetition's overlay, block-stacked where possible.

        Replica ``r``'s overlay is drawn from ``rngs[r]`` exactly as
        :func:`~repro.topology.build_overlay` would draw it, so the
        graphs match the serial path graph-for-graph.  Static families
        land in a :class:`ReplicatedStaticBlock` (the "random" one with no
        per-replica Python graph assembly) and array-native NEWSCAST in a
        :class:`~repro.newscast.vectorized_cache.ReplicatedNewscastBlock`
        (shared packed cache matrix, fused maintenance); the complete
        overlay and the dict NEWSCAST oracle reuse their standard
        builders, one overlay per replica.

        Returns ``(overlays, block)``: the block the overlays live in, or
        ``None`` for per-replica overlays.  A NEWSCAST block owns its
        overlays, which refer back to it weakly, so the caller holds it
        for as long as their maintenance should be fused.
        """
        kind = self.topology.kind.lower()
        if kind == "random":
            block = ReplicatedStaticBlock.build_k_out(
                self.size, self.topology.degree, rngs
            )
            return [block.view(replica) for replica in range(len(rngs))], block
        if kind in ("ring-lattice", "watts-strogatz", "scale-free"):
            # Build each graph once, copy its rows into the block and
            # release it, so peak memory holds one standalone overlay
            # (and its generator's scratch) plus the block — not R.
            block = ReplicatedStaticBlock.from_builder(
                len(rngs),
                lambda replica: build_overlay(self.topology, self.size, rngs[replica]),
            )
            return [block.view(replica) for replica in range(len(rngs))], block
        if self.topology.builds_array_newscast():
            # Stack the packed cache matrices and fuse the warm-ups.
            from ..newscast.vectorized_cache import ReplicatedNewscastBlock

            block = ReplicatedNewscastBlock.bootstrap(
                len(rngs), self.size, self.topology.degree, list(rngs)
            )
            return block.views(), block
        return [build_overlay(self.topology, self.size, rng) for rng in rngs], None


def _run_replicated(repeats: int, seed: int, plan: RunPlan) -> List[T]:
    """Run ``repeats`` repetitions of ``plan`` as one stacked simulation."""
    if repeats == 0:
        return []
    root = RandomSource(seed)
    run_rngs = [root.child("run", index) for index in range(repeats)]
    # The block is held for the run; nothing of it outlives the return
    # but what collect keeps (the engine and its views form no cycle).
    overlays, block = plan.build_replica_overlays(
        [rng.child("topology") for rng in run_rngs]
    )
    configs = [
        ReplicaConfig(
            overlay=overlay,
            initial_values=plan.resolve_values(rng),
            rng=rng.child("simulation"),
            failure_model=plan._failure_model(),
        )
        for overlay, rng in zip(overlays, run_rngs)
    ]
    engine = ReplicatedCycleSimulator(
        configs,
        plan.function_factory(),
        transport=plan.transport,
        record_every=plan.record_every,
    )
    engine.run(plan.cycles)
    return [plan.collect(view) for view in engine.views()]


def repeat_simulations(
    repeats: int,
    seed: int,
    make_run: Optional[Callable[[int, RandomSource], T]] = None,
    plan: Optional[RunPlan] = None,
) -> List[T]:
    """Generic repetition helper returning whatever ``make_run`` produces.

    Parameters
    ----------
    repeats:
        Number of independent repetitions.
    seed:
        Root seed; repetition ``i`` receives the child stream
        ``RandomSource(seed).child("run", i)``, so the list is ordered by
        repetition index and a plan's replica ``i`` is bit-identical to
        ``plan.serial_run(i, RandomSource(seed).child("run", i))``.
    make_run:
        Callable building and running one repetition.  Mutually
        exclusive with ``plan``.
    plan:
        A :class:`RunPlan` describing the repetition declaratively; its
        repetitions run as one stacked
        :class:`~repro.simulator.replicated.ReplicatedCycleSimulator` —
        typically several times faster than serial repeats at small N.
    """
    require_non_negative_int(repeats, "repeats")
    if plan is not None:
        # Ambiguous: the stacked path uses plan.collect, so a make_run
        # passed alongside would be silently ignored.
        require(
            make_run is None,
            "pass either make_run or a plan, not both (put per-run "
            "post-processing in the plan's collect)",
        )
        return _run_replicated(repeats, seed, plan)
    require(make_run is not None, "need either make_run or a plan")
    root = RandomSource(seed)
    return [make_run(index, root.child("run", index)) for index in range(repeats)]


def repeat_traces(
    repeats: int,
    seed: int,
    make_run: Optional[Callable[[int, RandomSource], SimulationTrace]] = None,
    plan: Optional[RunPlan] = None,
) -> List[SimulationTrace]:
    """:func:`repeat_simulations` for runs that produce traces.

    A function rather than an alias, so a wrapper installed on
    ``repeat_simulations`` also sees the calls made through this name.
    """
    return repeat_simulations(repeats, seed, make_run, plan=plan)
