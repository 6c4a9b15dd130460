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
repeats of a :class:`RunPlan` as consecutive stacked simulations of as
many replicas as fit a fixed byte budget
(:data:`~repro.core.functions._REPLICA_GROUP_BYTES`), each replica
bit-identical to its one-run :meth:`RunPlan.serial_run`.  An opaque
``make_run`` callable runs once per repetition.

Repetitions are independent (each draws only from its own
``child("run", i)`` streams), so where they run cannot change a bit of a
result.  :func:`fan_out` spreads the outermost repeat loop — a point's
stacked groups or ``make_run`` repetitions here, a figure's sweep points
in :meth:`~repro.experiments.figures.Figure.__call__` — over one forked
worker per usable CPU, and keeps work below :data:`_FAN_OUT_FLOOR` in the
calling process.  Fan-out needs the ``fork`` start method; without it,
with one usable CPU (``taskset -c 0`` gives a serial run, and the only
per-layer trace of a fanned workload) or inside a worker, every task runs
in the calling process, in index order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..common.rng import RandomSource
from ..common.validation import require, require_non_negative_int
from ..core.count import LeaderElection, peak_initial_values
from ..core.epoch import EpochConfig
from ..core.functions import AggregationFunction, AverageFunction, replica_groups
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

#: Work per task, in nodes × replicas × cycles, below which :func:`fan_out`
#: keeps its tasks in the calling process.  Forking and joining a pool of
#: two workers from a 55 MB parent takes 8.4 ms (median of 20, 13 ms at
#: most; 2-vCPU Xeon), and one node-cycle on the array engine costs
#: 100-280 ns on a static overlay (random 20-out, N = 10^4 and 400) and
#: 0.9-2.7 µs on NEWSCAST.  So a task at the floor takes at least 10 ms,
#: about the pool's cost: above it a second worker saves more than the
#: pool costs.  A SMOKE, BENCH or ``figures-bench`` point (at most
#: 400 × 3 × 50) stays in process; a DEFAULT point (2,000 × 10 × 30) and a
#: ``repeats-replicated-n10k`` group (10^4 × 5 × 20) fan out.
_FAN_OUT_FLOOR = 100_000

#: Seconds per node-cycle on the cheapest path measured (random 20-out at
#: N = 10^4): a ``make_run`` repetition states no size, so its measured
#: time at this rate stands for its work.
_NODE_CYCLE_S = 1e-7

#: The task of the pool this process serves as a worker; ``None`` in the
#: process that made the pool, so only a worker sees it set.
_worker_task: Optional[Callable[[int], object]] = None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(task: Callable[[int], object]) -> None:
    global _worker_task
    _worker_task = task


def _run_task(index: int) -> object:
    return _worker_task(index)


def fan_out(count: int, task: Callable[[int], T], work: int) -> List[T]:
    """``[task(0), ..., task(count - 1)]``, over forked workers where it pays.

    ``task`` must be independent of the order and the process it runs in;
    ``work`` is the largest task's nodes × replicas × cycles.  With more
    than one task, more than one usable CPU, ``work`` at or above
    :data:`_FAN_OUT_FLOOR`, the ``fork`` start method, and outside a
    worker, the tasks run on ``min(count, usable CPUs)`` workers of a
    per-call process pool.  Each worker inherits ``task`` through the fork,
    so it is never pickled (plans' lambdas and ``collect`` closures keep
    working, which ``spawn`` would have to pickle); only results travel
    back, in task order, and an exception raised by a task reaches the
    caller with its type.  The pool is joined before the call returns.
    Otherwise every task runs here, in index order.  A worker runs its
    tasks' nested calls in its own process: pools never nest.  The
    library starts no thread of its own; Python 3.12 warns on a fork
    while other threads exist, such as NumPy's OpenBLAS pool (which
    re-creates itself in the child).
    """
    workers = min(count, _usable_cpus())
    if workers < 2 or work < _FAN_OUT_FLOOR or _worker_task is not None:
        return [task(index) for index in range(count)]
    # Imported here: a process that never fans out never loads them (2 MB).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [task(index) for index in range(count)]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_serve,
        initargs=(task,),
    )
    try:
        return list(pool.map(_run_task, range(count)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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
    failures, post-processing — so the repeat helper runs the
    repetitions as stacked
    :class:`~repro.simulator.replicated.ReplicatedCycleSimulator` groups.
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


#: Per-cycle bytes of one stacked row beyond its stored arrays: the cycle
#: plan (shuffle, peers, outcomes), its stacked copy, the effective-exchange
#: filter and the conflict-round scratch.  Traced at 96-116 B on the
#: random 20-out overlay with link failure and crashes (N = 10^4 and 10^5);
#: NEWSCAST maintenance adds 25-55 B.
_CYCLE_ROW_BYTES = 105


def _replica_bytes(plan: RunPlan) -> int:
    """Law-predicted bytes one replica of ``plan`` holds while it runs.

    Per row: the ragged store's 4 B per stored neighbour (two per unit of
    degree, every edge being stored at both ends; a NEWSCAST cache, 4 B
    per entry, stays below it) and 25 B, the float64 initial
    value, the engine's ``8 * width + 13`` B, and the per-cycle scratch:
    319 B at degree 20 and width 1.  A build's transient scratch is one
    replica's at a time, so it is not counted per replica.
    """
    width = plan.function_factory().state_width()
    per_row = 8 * plan.topology.degree + 25 + 8 + 8 * width + 13 + _CYCLE_ROW_BYTES
    return plan.size * per_row


def _run_group(plan: RunPlan, run_rngs: Sequence[RandomSource]) -> List[T]:
    """Run one group of repetitions as one stacked simulation.

    Everything the group built is released on return, before the caller
    builds the next group; only what ``collect`` keeps survives (the
    engine and its views form no cycle).
    """
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


def _run_replicated(repeats: int, seed: int, plan: RunPlan) -> List[T]:
    """Run ``repeats`` repetitions of ``plan`` as consecutive stacked groups.

    Each group holds as many replicas as fit
    :data:`~repro.core.functions._REPLICA_GROUP_BYTES` by
    :func:`_replica_bytes`, and is finished and freed before the next is
    built.  Repetition ``i`` keeps its ``child("run", i)`` streams in any
    group, so the results do not depend on the grouping, nor on the
    process a group runs in: the groups go through :func:`fan_out`.
    """
    root = RandomSource(seed)
    groups = replica_groups(repeats, _replica_bytes(plan))
    work = plan.size * len(groups[0]) * plan.cycles if groups else 0
    results = fan_out(
        len(groups),
        lambda group: _run_group(plan, [root.child("run", run) for run in groups[group]]),
        work,
    )
    return [result for group in results for result in group]


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
        exclusive with ``plan``.  Repetition 0 runs in the calling
        process, timed: its seconds over :data:`_NODE_CYCLE_S` are the
        work of each of the others, which go through :func:`fan_out`
        (this is how the adaptive figures' repeats spread).
    plan:
        A :class:`RunPlan` describing the repetition declaratively; its
        repetitions run as stacked
        :class:`~repro.simulator.replicated.ReplicatedCycleSimulator`
        groups of at most ``_REPLICA_GROUP_BYTES`` law-predicted bytes
        (one group up to DEFAULT scale, one replica per group at
        N = 10^5), through :func:`fan_out`: each process holds one group
        at a time.
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
    if not repeats:
        return []
    started = time.perf_counter()
    first = make_run(0, root.child("run", 0))
    work = int((time.perf_counter() - started) / _NODE_CYCLE_S)
    return [first] + fan_out(
        repeats - 1, lambda index: make_run(index + 1, root.child("run", index + 1)), work
    )


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
