"""Reproductions of every figure in the paper's evaluation, as data.

All the paper's quantitative results are figures (it has no numbered
tables), and nearly all have one shape: a swept parameter, each point
repeated with independent seeds and reduced to rows.  So each figure is
one :class:`Figure` record in :data:`ALL_FIGURES` — the table at the end
of this module, and the figure → paper map — and one runner,
:meth:`Figure.__call__`, owns the sweep → :class:`RunPlan` → repeats →
rows loop.  Figures that are not independent repeats per point (the
adaptive epoch runs, the partition trace, the cost model) supply their
own body behind the same call::

    ALL_FIGURES["7a"](scale, points=[0.0, 0.5], cycles=20)  # -> FigureResult

``points`` replaces the swept axis (``None``: the figure's default at
this scale) and ``cycles`` the cycle count (per epoch for the adaptive
figures); the rest of a figure is constants of its record, reported in
:attr:`FigureResult.parameters`.  The :class:`ExperimentScale` sets size,
repeats, sweep density and seed, so the same table runs as a smoke test,
at example scale, or at the paper's.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.convergence import (
    mean_convergence_factor, normalized_mean_variance, variance_reduction_curve,
)
from ..analysis.theory import (
    PUSH_PULL_CONVERGENCE_FACTOR, crash_variance_prediction, exchange_count_pmf,
    expected_exchanges_per_cycle, link_failure_convergence_bound,
)
from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..core.count import network_size_from_estimate
from ..core.epoch import EpochConfig
from ..core.functions import AverageFunction, VectorFunction
from ..core.instances import (
    median_size_estimates, multi_instance_peak_values, trimmed_size_estimates,
)
from ..simulator import make_simulator
from ..simulator.adversarial import ByzantineReporterModel
from ..simulator.asynchrony import LAN
from ..simulator.cycle_sim import CycleSimulator
from ..simulator.failures import (
    ChurnModel, CountCrashModel, PartitionOutageModel, ProportionalCrashModel, SuddenDeathModel,
)
from ..simulator.transport import TransportModel
from ..topology import effective_component_count
from ..topology.generators import TopologySpec, build_overlay
from .config import DEFAULT, ExperimentScale
from .reporting import render_table
from .runner import (
    RunPlan, ValuesSpec, fan_out, peak_values_for_count, repeat_simulations,
    run_async_count, run_epoched_count, uniform_initial_values,
)

__all__ = ["Figure", "FigureResult", "Setting", "standard_topologies", "ALL_FIGURES"]

Row = Dict[str, object]


@dataclass
class FigureResult:
    """Data reproduced for one figure of the paper.

    Attributes
    ----------
    figure_id:
        The paper's figure number (e.g. ``"3a"``).
    title:
        A one-line description of what the figure shows.
    rows:
        The reproduced data series as a list of homogeneous dictionaries;
        one row per plotted point.
    parameters:
        The experimental parameters actually used (sizes, repeats...), so
        EXPERIMENTS.md can record them next to the paper's values.
    """

    figure_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    parameters: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Human readable text table of the reproduced series."""
        header = f"Figure {self.figure_id}: {self.title}"
        params = ", ".join(f"{key}={value}" for key, value in self.parameters.items())
        if params:
            header = f"{header}\n[{params}]"
        return render_table(self.rows, title=header)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]


@dataclass(frozen=True)
class Setting:
    """What one figure call runs with: the scale's size, repeats (at least
    the figure's ``min_repeats``) and seed, the resolved cycles, and the
    figure's constants, read as ``setting["name"]``."""

    size: int
    cycles: int
    repeats: int
    seed: int
    constants: Mapping[str, object]

    def __getitem__(self, name: str) -> object:
        return self.constants[name]


def _standard_parameters(s: Setting, points: Sequence) -> Row:
    return {"network_size": s.size, "cycles": s.cycles, **s.constants, "repeats": s.repeats}


@dataclass(frozen=True)
class Figure:
    """One figure of the paper as data; calling it reproduces the figure.

    Attributes
    ----------
    figure_id, title, paper:
        Registry key, one-line description, and the figure or section of
        the paper it reproduces.
    cycles:
        Default cycle count (cycles per epoch for the adaptive figures).
    points:
        Default points of the swept axis at a scale; ``None`` for a figure
        without one (which then rejects ``points``).
    axis:
        ``(column, type)``: points are converted to ``type`` and lead their
        rows under ``column``.
    plan, reduce:
        ``(setting, point) -> RunPlan`` for one point's repetition, and
        ``(setting, point, results) -> row or rows`` over its repeats.
    series:
        Fixed curves (Figure 5's two overlays) per network size: the sweep
        runs once per curve with ``(curve, point)`` as the point.
    parameters:
        ``(setting, points) -> dict`` reported with the rows; by default
        the size, the cycles, the constants and the repeats.
    constants:
        The fixed settings of the paper's setup, read as ``setting[name]``.
    min_repeats:
        Lower bound on the repeats per point.
    body:
        ``(setting, points) -> (rows, parameters)`` replacing the sweep,
        for figures that are not independent repeats per point.
    """

    figure_id: str
    title: str
    paper: str
    cycles: int
    points: Optional[Callable[[ExperimentScale], Sequence]] = None
    axis: Optional[Tuple[str, type]] = None
    plan: Optional[Callable[[Setting, Any], RunPlan]] = None
    reduce: Optional[Callable[[Setting, Any, List], Union[Row, List[Row]]]] = None
    series: Optional[Callable[[int], Sequence]] = None
    parameters: Callable[[Setting, Sequence], Row] = _standard_parameters
    constants: Mapping[str, object] = field(default_factory=dict)
    min_repeats: int = 1
    body: Optional[Callable[[Setting, Sequence], Tuple[List[Row], Row]]] = None

    def __call__(
        self,
        scale: ExperimentScale = DEFAULT,
        points: Optional[Sequence] = None,
        cycles: Optional[int] = None,
    ) -> FigureResult:
        """Reproduce the figure at ``scale`` over ``points`` for ``cycles``.

        The sweep points go through :func:`~repro.experiments.runner.fan_out`,
        one task per point, whose work is the largest point's plan size ×
        repeats × cycles: a worker runs its point's
        :func:`~repro.experiments.runner.repeat_simulations` and ``reduce``
        in its own process, and rows come back in point order, bit-identical
        to a run in one process.  A ``body`` figure runs in the calling
        process (its own repeats may fan out).
        """
        if points is not None and self.points is None:
            raise ConfigurationError(
                f"figure {self.figure_id} has no swept axis, so it takes no points"
            )
        setting = Setting(
            size=scale.network_size,
            cycles=self.cycles if cycles is None else cycles,
            repeats=max(scale.repeats, self.min_repeats),
            seed=scale.seed,
            constants=self.constants,
        )
        if self.points is None:
            swept: List = [None]
        else:
            swept = list(self.points(scale) if points is None else points)
        if self.axis is not None:
            swept = [self.axis[1](point) for point in swept]
        if self.body is not None:
            rows, parameters = self.body(setting, swept)
            return FigureResult(self.figure_id, self.title, rows, parameters)
        runs = swept
        if self.series is not None:
            runs = [(curve, point) for curve in self.series(setting.size) for point in swept]
        plans = [self.plan(setting, point) for point in runs]

        def run_point(index: int) -> List[Row]:
            results = repeat_simulations(setting.repeats, setting.seed, plan=plans[index])
            reduced = self.reduce(setting, runs[index], results)
            return [reduced] if isinstance(reduced, dict) else reduced

        work = max((plan.size * plan.cycles for plan in plans), default=0) * setting.repeats
        rows = [
            {self.axis[0]: point, **row} if self.axis else row
            for point, reduced in zip(runs, fan_out(len(runs), run_point, work))
            for row in reduced
        ]
        return FigureResult(self.figure_id, self.title, rows, self.parameters(setting, swept))


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------
def standard_topologies(degree: int = 20, newscast_cache: int = 30) -> List[TopologySpec]:
    """The topology families compared in Figure 3 of the paper."""
    return [
        TopologySpec("watts-strogatz", degree=degree, beta=0.00),
        TopologySpec("watts-strogatz", degree=degree, beta=0.25),
        TopologySpec("watts-strogatz", degree=degree, beta=0.50),
        TopologySpec("watts-strogatz", degree=degree, beta=0.75),
        TopologySpec("newscast", degree=newscast_cache),
        TopologySpec("scale-free", degree=degree),
        TopologySpec("random", degree=degree),
        TopologySpec("complete"),
    ]


def _effective_degree(size: int, degree: int = 20) -> int:
    """Cap the paper's 20-neighbour views for very small test networks:
    the largest even degree below ``size - 1``, which Watts–Strogatz needs
    (every other family accepts any degree below ``size``)."""
    capped = min(degree, size - 2)
    return capped if capped % 2 == 0 else capped - 1


def _newscast_spec(size: int, cache: int = 30) -> TopologySpec:
    """The NEWSCAST overlay spec every figure uses: cache ``c`` capped for tiny networks."""
    return TopologySpec("newscast", degree=min(cache, max(2, size - 1)))


def _figure3_topologies(size: int) -> List[TopologySpec]:
    """Figure 3's overlays with the paper's view and cache sizes capped for ``size`` nodes."""
    return standard_topologies(
        degree=_effective_degree(size), newscast_cache=_newscast_spec(size).degree
    )


def _sweep(low: float, high, integer: bool = False) -> Callable[[ExperimentScale], list]:
    """Default points: ``max(3, sweep_points)`` evenly spaced on ``[low, high]``
    (``high`` may depend on the size); integer axes are rounded and deduplicated."""

    def points(scale: ExperimentScale) -> list:
        top = high(scale.network_size) if callable(high) else high
        values = np.linspace(low, top, max(3, scale.sweep_points))
        if integer:
            return sorted({int(round(value)) for value in values})
        return [float(value) for value in values]

    return points


def _plan(s: Setting, values: ValuesSpec, topology: Optional[TopologySpec] = None, **options):
    """One point's repetition at the setting's size and cycles, on the
    figures' NEWSCAST overlay unless another ``topology`` is given."""
    options.setdefault("size", s.size)
    topology = topology or _newscast_spec(options["size"])
    return RunPlan(topology=topology, cycles=s.cycles, values=values, **options)


def _count_plan(s: Setting, **options) -> RunPlan:
    """COUNT (peak distribution) on the figures' NEWSCAST overlay."""
    return _plan(s, peak_values_for_count(s.size), **options)


def _count_size_estimate(simulator) -> float:
    """The network size a COUNT epoch reports: reciprocal of the mean estimate."""
    mean_estimate = simulator.trace.final.mean
    if not math.isfinite(mean_estimate):
        return math.inf
    return network_size_from_estimate(mean_estimate)


def _count_node_size_extremes(simulator) -> tuple:
    """Min and max size estimate over the individual nodes of one run."""
    sizes = network_size_from_estimate(simulator.state_array()[:, 0])
    finite = sizes[np.isfinite(sizes)]
    if not finite.size:
        return math.inf, math.inf
    return float(finite.min()), float(sizes.max())


def _instances_plan(s: Setting, count: int, collect: Callable, **options) -> RunPlan:
    """``count``-instance COUNT on NEWSCAST, each repetition drawing its
    leaders from ``child("values").child("instances")``."""

    def values(size: int, rng: RandomSource) -> List[tuple]:
        initial, _ = multi_instance_peak_values(list(range(size)), count, rng.child("instances"))
        return [initial[node] for node in range(size)]

    return _plan(
        s,
        values,
        function_factory=lambda: VectorFunction([AverageFunction() for _ in range(count)]),
        collect=collect,
        **options,
    )


def _instance_size_extremes(simulator) -> tuple:
    """Min and max trimmed-mean size estimate over the nodes of one run."""
    sizes = trimmed_size_estimates(simulator.state_array())
    finite = sizes[np.isfinite(sizes)]
    if not finite.size:
        return math.inf, math.inf
    return float(finite.min()), float(finite.max())


def _convergence(s: Setting, _, traces) -> Row:
    """The convergence factor over the run's cycles (Figures 3a, 4a, 4b, 7a)."""
    return {"convergence_factor": mean_convergence_factor(traces, s.cycles)}


def _size_spread(estimates: Sequence[float]) -> Row:
    """Mean/min/max of the finite size estimates (``inf`` when none is)."""
    finite = [value for value in estimates if math.isfinite(value)]
    return {
        "mean_estimated_size": float(np.mean(finite)) if finite else math.inf,
        "min_estimated_size": float(np.min(finite)) if finite else math.inf,
        "max_estimated_size": float(np.max(finite)) if finite else math.inf,
    }


def _count_spread(s: Setting, _, estimates: Sequence[float]) -> Row:
    """Figure 6's row: the size spread over the runs and how many diverged."""
    return {
        **_size_spread(estimates),
        "diverged_runs": sum(not math.isfinite(value) for value in estimates),
        "true_size": s.size,
    }


def _envelope(s: Setting, _, extremes: Sequence[tuple]) -> Row:
    """Mean and worst of the per-run min/max size estimates (7b, 8a, 8b)."""
    minima = [low for low, _ in extremes if math.isfinite(low)]
    maxima = [high for _, high in extremes if math.isfinite(high)]
    return {
        "mean_min_size": float(np.mean(minima)) if minima else math.inf,
        "mean_max_size": float(np.mean(maxima)) if maxima else math.inf,
        "worst_min_size": float(np.min(minima)) if minima else math.inf,
        "worst_max_size": float(np.max(maxima)) if maxima else math.inf,
        "true_size": s.size,
    }


# ----------------------------------------------------------------------
# Figure 2 — AVERAGE on the peak distribution.  One node holds the value
# N, all others hold 0, so the true average is exactly 1; the network is
# a random overlay with 20-neighbour views.  Per cycle, the minimum and
# maximum estimate over all nodes, averaged over the repetitions.
# ----------------------------------------------------------------------
def _peak_rows(s: Setting, _, traces) -> List[Row]:
    return [
        {
            "cycle": cycle,
            "min_estimate": float(np.mean([trace.record_at(cycle).minimum for trace in traces])),
            "max_estimate": float(np.mean([trace.record_at(cycle).maximum for trace in traces])),
            "true_average": 1.0,
        }
        for cycle in range(s.cycles + 1)
    ]


# ----------------------------------------------------------------------
# Figure 3(a) — convergence factor over 20 cycles vs network size, per
# topology.  Points are (size, topology) pairs.
# ----------------------------------------------------------------------
def _sizes_and_topologies(scale: ExperimentScale) -> list:
    smallest = min(100, scale.network_size)
    count = max(2, min(scale.sweep_points, 6))
    sizes = sorted(
        {int(round(value)) for value in np.geomspace(smallest, scale.network_size, count)}
    )
    return [(size, spec) for size in sizes for spec in _figure3_topologies(size)]


# ----------------------------------------------------------------------
# Figure 5 — Var(µ_20)/E(σ²_0) under per-cycle crashes with probability
# Pf, on the complete overlay and on NEWSCAST, vs Theorem 1.
# ----------------------------------------------------------------------
def _crash_plan(s: Setting, point) -> RunPlan:
    (_, spec), probability = point
    failure_factory = (
        (lambda: ProportionalCrashModel(probability)) if probability > 0 else None
    )
    return _plan(s, uniform_initial_values, spec, failure_factory=failure_factory)


def _crash_row(s: Setting, point, traces) -> Row:
    (label, _), probability = point
    return {
        "topology": label,
        "crash_probability": float(probability),
        "measured_normalized_variance": (
            normalized_mean_variance(traces, at_cycle=s.cycles) if probability > 0.0 else 0.0
        ),
        "predicted_normalized_variance": crash_variance_prediction(
            probability, s.size, s.cycles
        ),
    }


# ----------------------------------------------------------------------
# Robustness extension — COUNT degradation vs byzantine reporter
# fraction.  A colluding fraction of the nodes mounts a targeted attack
# on multi-instance COUNT: every cycle they overwrite the first
# ⌈attacked_instance_fraction · t⌉ instance components of their own
# state with 0, draining mass from exactly those instances (see
# ByzantineReporterModel).  Per byzantine fraction, the median relative
# error of the size estimate an *honest* node reports under three
# reduction rules: a single (attacked) instance, the paper's trimmed
# mean, and the byzantine-hardened median-of-instances — the
# quantitative case for the hardened rule.  The repeats of one point
# run as replica-batched simulations on the vectorized NEWSCAST fast
# path.
# ----------------------------------------------------------------------
def _byzantine_plan(s: Setting, fraction: float) -> RunPlan:
    # Both repeat paths build a repetition's failure model before collecting
    # it, and collect in order, so ``honest_errors`` takes the oldest.
    attacks: Deque = deque()

    def attack():
        fraction_attacked = s["attacked_instance_fraction"]
        attacks.append(
            ByzantineReporterModel(fraction, instance_fraction=fraction_attacked)
            if fraction > 0 else None
        )
        return attacks[-1]

    def honest_errors(simulator) -> Dict[str, float]:
        model = attacks.popleft()
        ids = simulator.participant_ids()
        honest = np.array(simulator.state_array(), dtype=np.float64)
        if model is not None:
            honest = honest[~np.isin(ids, model.byzantine_ids)]
        reduced = {
            "single_instance_error": network_size_from_estimate(honest[:, 0]),
            "trimmed_error": trimmed_size_estimates(honest),
            "median_error": median_size_estimates(honest),
        }
        return {
            column: float(np.median(np.abs(sizes - s.size) / s.size))
            for column, sizes in reduced.items()
        }

    return _instances_plan(s, s["instances"], honest_errors, failure_factory=attack)


def _mean_errors(s: Setting, _, errors: List[Dict[str, float]]) -> Row:
    """Each reduction rule's error averaged over the runs."""
    return {
        **{column: float(np.mean([run[column] for run in errors])) for column in errors[0]},
        "true_size": s.size,
    }


# ----------------------------------------------------------------------
# Sections 4.1/4.3/5 — the practical protocol: adaptive epoched COUNT.
# The size-monitoring scenario the paper is named for, end to end: a
# NEWSCAST network under continuous churn and message loss runs
# consecutive epochs of per-epoch multi-leader self-election at
# P_lead = C/N̂, γ cycles of map-based COUNT, trimmed-mean reduction, and
# the estimate fed back into the next election.  The election is seeded
# with a deliberately wrong size (initial_estimate_factor times the
# truth), so the rows show the feedback loop pulling N̂ — and with it the
# number of concurrent leaders — back to the true size within the first
# epochs.  The paper has no single figure for this composite run (it is
# the protocol of Sections 4.1/4.3/5 with the technique of 7.3).
#
# The "adaptive-async" figure executes the same run *asynchronously*:
# same protocol, same feedback loop, same deliberately wrong initial
# estimate — but per-node drifted timers instead of global cycles,
# sampled message latencies with exchange timeouts, message loss during
# epochs, and epidemic epoch synchronisation doing real work.  Its
# scenario is 1% clock drift with 5% message loss, and its rows should
# match the cycle-model figure within sampling noise — the central
# cross-engine claim of the reproduction.
#
# Points are epoch positions: the runs last up to the last one, and each
# row is one epoch's adopted estimate over the repetitions, its leader
# count, and the synchronisation traffic (churned-in nodes joined, or
# nodes reporting an epoch jump).
# ----------------------------------------------------------------------
def _epoch_sweep(
    s: Setting, positions: Sequence[int], run_epochs: Callable, traffic: Tuple[str, str], **reported
) -> Tuple[List[Row], Row]:
    """Run ``run_epochs`` per repeat and reduce its epoch records per epoch."""
    epochs = max(positions) + 1
    config = EpochConfig(cycles_per_epoch=s.cycles)
    initial_estimate = max(2.0, s["initial_estimate_factor"] * s.size)
    runs = repeat_simulations(
        s.repeats, s.seed, lambda index, rng: run_epochs(rng, epochs, config, initial_estimate)
    )
    column, attribute = traffic
    rows = []
    for position in positions:
        records = [run[position] for run in runs if position < len(run)]

        def mean(name: str) -> float:
            return float(np.mean([getattr(record, name) for record in records])) if records else 0.0

        rows.append(
            {
                "epoch": records[0].epoch_id if records else position,
                **_size_spread([record.size_estimate for record in records]),
                "mean_leaders": mean("leader_count"),
                column: mean(attribute),
                "dry_runs": sum(record.dry for record in records),
                "true_size": s.size,
            }
        )
    return rows, {
        "network_size": s.size,
        "epochs": epochs,
        "cycles_per_epoch": s.cycles,
        "concurrent_target": s["concurrent_target"],
        **reported,
        "initial_estimate_factor": s["initial_estimate_factor"],
        "repeats": s.repeats,
    }


def _adaptive_epochs(s: Setting, positions: Sequence[int]) -> Tuple[List[Row], Row]:
    churn = max(1, int(round(s["churn_fraction_per_cycle"] * s.size)))
    transport = TransportModel(message_loss_probability=float(s["message_loss"]))

    def run_epochs(rng, epochs, config, initial_estimate):
        result = run_epoched_count(
            _newscast_spec(s.size), s.size, epochs, rng,
            concurrent_target=s["concurrent_target"], initial_estimate=initial_estimate,
            epoch_config=config, transport=transport,
            failure_factory=lambda epoch_id: ChurnModel(churn), record_every=s.cycles,
        )
        return result.records

    return _epoch_sweep(
        s, positions, run_epochs, ("mean_joined", "joined_count"),
        churn_per_cycle=churn, message_loss=s["message_loss"],
    )


def _async_adaptive_epochs(s: Setting, positions: Sequence[int]) -> Tuple[List[Row], Row]:
    scenario = s["scenario"]

    def run_epochs(rng, epochs, config, initial_estimate):
        return run_async_count(
            TopologySpec("random", degree=_effective_degree(s.size)), s.size, epochs, rng,
            scenario=scenario, concurrent_target=s["concurrent_target"],
            initial_estimate=initial_estimate, epoch_config=config, record_every=s.cycles,
        ).epoch_records()

    return _epoch_sweep(
        s, positions, run_epochs, ("mean_jump_reporters", "jump_reporters"),
        scenario=scenario.label(), clock_drift=scenario.clock_drift,
        message_loss=scenario.message_loss,
    )


# ----------------------------------------------------------------------
# Robustness extension — AVERAGE through a partition outage: split,
# diverge, heal, re-converge.  A NEWSCAST network runs AVERAGE while a
# PartitionOutageModel severs the lower boundary_fraction of the id space
# for partition_length cycles.  Per cycle, the number of connected
# components of the *effective* communication graph (overlay edges minus
# blocked pairs), each side's mean estimate, and the global variance:
# during the outage the overlay demonstrably splits in two and the side
# means drift to the two local averages; after the heal the halves
# re-merge through surviving cross-side cache entries and the gap between
# the side means collapses again.
# ----------------------------------------------------------------------
def _average_run(s: Setting, spec: TopologySpec, engine: Callable = make_simulator, **options):
    """One AVERAGE run over uniform values, drawn from the root seed's
    streams: ``(values, overlay, simulator)``, not yet stepped."""
    rng = RandomSource(s.seed)
    values = uniform_initial_values(s.size, rng.child("values"))
    overlay = build_overlay(spec, s.size, rng.child("topology"))
    simulator = engine(
        overlay=overlay, function=AverageFunction(), initial_values=values,
        rng=rng.child("simulation"), **options,
    )
    return values, overlay, simulator


def _partition_trace(s: Setting, _) -> Tuple[List[Row], Row]:
    heal_cycle = s["partition_start"] + s["partition_length"]
    reachability = PartitionOutageModel.split(
        s.size, s["boundary_fraction"], s["partition_start"], heal_cycle
    )
    values, overlay, simulator = _average_run(
        s, _newscast_spec(s.size), reachability=reachability
    )
    boundary = reachability.boundary
    rows = []
    for cycle in range(1, s.cycles + 1):
        simulator.run_cycle()
        active = reachability.is_active(cycle)
        components = effective_component_count(
            overlay, reachability if active else None, cycle
        )
        ids = simulator.participant_ids()
        states = np.array(simulator.state_array(), dtype=np.float64).reshape(ids.size, -1)[:, 0]
        low = states[ids < boundary]
        high = states[ids >= boundary]
        mean_low = float(np.mean(low)) if low.size else math.nan
        mean_high = float(np.mean(high)) if high.size else math.nan
        rows.append(
            {
                "cycle": cycle,
                "partition_active": active,
                "components": int(components),
                "mean_low_side": mean_low,
                "mean_high_side": mean_high,
                "side_gap": abs(mean_low - mean_high),
                "variance": float(np.var(states)),
            }
        )
    return rows, {
        "network_size": s.size,
        "cycles": s.cycles,
        "partition_window": f"[{s['partition_start']}, {heal_cycle})",
        "boundary": boundary,
        "true_mean": float(np.mean(values)),
    }


# ----------------------------------------------------------------------
# Section 4.5 — distribution of exchanges per node per cycle vs the
# 1 + Poisson(1) model, measured on the reference engine's contact counts.
# ----------------------------------------------------------------------
def _exchange_counts(s: Setting, _) -> Tuple[List[Row], Row]:
    _, _, simulator = _average_run(
        s, TopologySpec("random", degree=_effective_degree(s.size)), CycleSimulator
    )
    observed: Dict[int, int] = {}
    samples = 0
    for _ in range(s.cycles):
        simulator.run_cycle()
        for count in simulator.last_cycle_contact_counts.values():
            observed[count] = observed.get(count, 0) + 1
            samples += 1
    rows = [
        {
            "exchanges_per_cycle": count,
            "observed_fraction": observed.get(count, 0) / samples if samples else 0.0,
            "predicted_fraction": exchange_count_pmf(count),
        }
        for count in range(0, s["max_count"] + 1)
    ]
    mean_observed = (
        sum(count * frequency for count, frequency in observed.items()) / samples
        if samples
        else 0.0
    )
    return rows, {
        "network_size": s.size,
        "cycles": s.cycles,
        "observed_mean": mean_observed,
        "predicted_mean": expected_exchanges_per_cycle(),
    }


def _crashes_per_cycle(s: Setting) -> int:
    """Figure 8(a)'s crash fraction of the network, in whole nodes per cycle."""
    return max(1, int(round(s["crash_fraction_per_cycle"] * s.size)))


#: Every reproduced figure, keyed by the paper's figure number — the
#: registry used by the examples, the benchmarks and EXPERIMENTS.md.
ALL_FIGURES: Dict[str, Figure] = {
    figure.figure_id: figure
    for figure in (
        Figure(
            "2", "AVERAGE protocol on the peak distribution (min/max estimates per cycle)",
            paper="Figure 2", cycles=30,
            plan=lambda s, _: _plan(
                s,
                peak_values_for_count(s.size, peak_value=float(s.size)),
                TopologySpec("random", degree=_effective_degree(s.size)),
            ),
            reduce=_peak_rows,
        ),
        Figure(
            "3a", "Convergence factor over 20 cycles vs network size, per topology",
            paper="Figure 3(a)", cycles=20, points=_sizes_and_topologies,
            plan=lambda s, point: _plan(s, uniform_initial_values, point[1], size=point[0]),
            reduce=lambda s, point, traces: {
                "topology": point[1].label(),
                "network_size": point[0],
                **_convergence(s, point, traces),
                "theory_random": PUSH_PULL_CONVERGENCE_FACTOR,
            },
            parameters=lambda s, points: {
                "sizes": list(dict.fromkeys(size for size, _ in points)),
                "cycles": s.cycles,
                "repeats": s.repeats,
            },
        ),
        # Normalised variance vs cycle for every topology family; points
        # are the topologies.
        Figure(
            "3b", "Variance reduction (normalised by initial variance) per cycle",
            paper="Figure 3(b)", cycles=50,
            points=lambda scale: _figure3_topologies(scale.network_size),
            plan=lambda s, spec: _plan(s, uniform_initial_values, spec),
            reduce=lambda s, spec, traces: [
                {"topology": spec.label(), "cycle": cycle, "normalized_variance": value}
                for cycle, value in enumerate(variance_reduction_curve(traces))
            ],
        ),
        Figure(
            "4a", "Convergence factor vs Watts-Strogatz rewiring probability",
            paper="Figure 4(a)", cycles=20, points=_sweep(0.0, 1.0), axis=("beta", float),
            plan=lambda s, beta: _plan(s, uniform_initial_values, TopologySpec(
                "watts-strogatz", degree=_effective_degree(s.size), beta=beta
            )),
            reduce=_convergence,
        ),
        Figure(
            "4b", "Convergence factor vs NEWSCAST cache size",
            paper="Figure 4(b)", cycles=20, axis=("cache_size", int),
            points=_sweep(2, lambda size: min(50, size - 1), integer=True),
            plan=lambda s, cache: _plan(
                s, uniform_initial_values, _newscast_spec(s.size, cache=cache)
            ),
            reduce=_convergence,
        ),
        # The variance of the mean needs several runs per point.
        Figure(
            "5", "Variance of the estimated mean after 20 cycles vs crash probability",
            paper="Figure 5", cycles=20, points=_sweep(0.0, 0.3), min_repeats=10,
            series=lambda size: [
                ("complete", TopologySpec("complete")),
                ("newscast", _newscast_spec(size)),
            ],
            plan=_crash_plan,
            reduce=_crash_row,
        ),
        # Size reported by COUNT when a fraction of the nodes dies at
        # cycle x; points are the crash cycles.
        Figure(
            "6a", "COUNT under sudden death of 50% of the nodes at a given cycle",
            paper="Figure 6(a)", cycles=30, points=_sweep(1, 20, integer=True),
            axis=("crash_cycle", int), constants={"fraction": 0.5},
            plan=lambda s, crash_cycle: _count_plan(
                s,
                failure_factory=lambda: SuddenDeathModel(s["fraction"], at_cycle=crash_cycle),
                collect=_count_size_estimate,
            ),
            reduce=_count_spread,
        ),
        # Size reported by COUNT under continuous node substitution: at
        # every cycle a fixed number of nodes crash and the same number of
        # brand-new nodes join (but do not participate in the running
        # epoch).  The paper sweeps 0-2500 substitutions per cycle at
        # N = 10^5, i.e. up to 2.5% of the network per cycle, the range
        # reproduced here.
        Figure(
            "6b", "COUNT in a constant-size network with continuous churn",
            paper="Figure 6(b)", cycles=30, axis=("substitutions_per_cycle", int),
            points=_sweep(0, lambda size: max(1, int(round(0.025 * size))), integer=True),
            plan=lambda s, rate: _count_plan(
                s,
                failure_factory=(lambda: ChurnModel(rate)) if rate > 0 else None,
                collect=_count_size_estimate,
            ),
            reduce=_count_spread,
        ),
        Figure(
            "7a", "Convergence factor of COUNT vs link failure probability",
            paper="Figure 7(a)", cycles=20, points=_sweep(0.0, 0.9),
            axis=("link_failure_probability", float),
            plan=lambda s, probability: _count_plan(
                s, transport=TransportModel(link_failure_probability=probability)
            ),
            reduce=lambda s, probability, traces: {
                **_convergence(s, probability, traces),
                "theoretical_upper_bound": link_failure_convergence_bound(probability),
            },
        ),
        # Min/max size reported by COUNT vs the fraction of lost messages.
        Figure(
            "7b", "Min/max size estimated by COUNT vs fraction of messages lost",
            paper="Figure 7(b)", cycles=30, points=_sweep(0.0, 0.5),
            axis=("message_loss_fraction", float),
            plan=lambda s, fraction: _count_plan(
                s,
                transport=TransportModel(message_loss_probability=fraction),
                collect=_count_node_size_extremes,
            ),
            reduce=_envelope,
        ),
        # Multi-instance COUNT (trimmed mean of t instances) under
        # per-cycle crashes: the paper crashes 1000 of 10^5 nodes per
        # cycle (1%); the same fraction of the scaled network is used here.
        Figure(
            "8a", "Multi-instance COUNT (trimmed mean) under per-cycle crashes",
            paper="Figure 8(a)", cycles=30, points=_sweep(1, 50, integer=True),
            axis=("instances", int), constants={"crash_fraction_per_cycle": 0.01},
            plan=lambda s, count: _instances_plan(
                s, count, _instance_size_extremes,
                failure_factory=lambda: CountCrashModel(_crashes_per_cycle(s)),
            ),
            reduce=_envelope,
            parameters=lambda s, points: {
                "network_size": s.size, "cycles": s.cycles, "repeats": s.repeats,
                "crashes_per_cycle": _crashes_per_cycle(s),
            },
        ),
        # Multi-instance COUNT with 20% of the messages lost.
        Figure(
            "8b", "Multi-instance COUNT (trimmed mean) with message loss",
            paper="Figure 8(b)", cycles=30, points=_sweep(1, 50, integer=True),
            axis=("instances", int), constants={"message_loss": 0.2},
            plan=lambda s, count: _instances_plan(
                s, count, _instance_size_extremes,
                transport=TransportModel(message_loss_probability=s["message_loss"]),
            ),
            reduce=_envelope,
            parameters=lambda s, points: {
                "network_size": s.size, "cycles": s.cycles, "repeats": s.repeats,
                "message_loss": s["message_loss"],
            },
        ),
        Figure(
            "adaptive",
            "Adaptive multi-epoch COUNT under churn and message loss (practical protocol)",
            paper="Sections 4.1/4.3/5 with the technique of Section 7.3", cycles=30,
            points=lambda scale: range(10), body=_adaptive_epochs,
            constants={
                "concurrent_target": 20.0,
                "churn_fraction_per_cycle": 0.005,
                "message_loss": 0.05,
                "initial_estimate_factor": 0.25,
            },
        ),
        Figure(
            "adaptive-async",
            "Adaptive COUNT on the asynchronous engine (drift + loss + timeouts)",
            paper="Sections 4.1-4.3 on an asynchronous network", cycles=25,
            points=lambda scale: range(6), body=_async_adaptive_epochs,
            constants={
                "concurrent_target": 20.0,
                "scenario": LAN.with_overrides(
                    name="adaptive-async", clock_drift=0.01, message_loss=0.05
                ),
                "initial_estimate_factor": 0.25,
            },
        ),
        Figure(
            "byzantine",
            "COUNT error of honest nodes vs byzantine reporter fraction, per reduction rule",
            paper="Section 7.3's instances against byzantine reporters (extension)",
            cycles=30, points=_sweep(0.0, 0.2), axis=("byzantine_fraction", float),
            constants={"instances": 16, "attacked_instance_fraction": 0.4},
            plan=_byzantine_plan,
            reduce=_mean_errors,
        ),
        Figure(
            "partition",
            "AVERAGE through a partition outage: overlay split and re-convergence",
            paper="correlated failures: a partition outage (extension)", cycles=30,
            body=_partition_trace,
            constants={"partition_start": 5, "partition_length": 5, "boundary_fraction": 0.5},
        ),
        Figure(
            "cost", "Exchanges per node per cycle vs the 1 + Poisson(1) model",
            paper="Section 4.5", cycles=10, body=_exchange_counts, constants={"max_count": 8},
        ),
    )
}
