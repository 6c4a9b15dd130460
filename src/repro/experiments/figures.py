"""Reproductions of every figure in the paper's evaluation.

Each public function regenerates the data behind one figure of the paper
(the paper has no numbered tables; all quantitative results are figures)
and returns a :class:`FigureResult` whose rows are the series the paper
plots.  The functions accept an
:class:`~repro.experiments.config.ExperimentScale` so the same code can
run as a smoke test, at example scale, or at the paper's original scale.

Overview (paper figure → function):

==========  ===========================================================
Figure 2    :func:`figure2_average_peak` — min/max estimate trajectories
Figure 3a   :func:`figure3a_convergence_vs_size`
Figure 3b   :func:`figure3b_variance_reduction`
Figure 4a   :func:`figure4a_watts_strogatz_beta`
Figure 4b   :func:`figure4b_newscast_cache_size`
Figure 5    :func:`figure5_crash_variance`
Figure 6a   :func:`figure6a_sudden_death`
Figure 6b   :func:`figure6b_churn`
Figure 7a   :func:`figure7a_link_failures`
Figure 7b   :func:`figure7b_message_loss`
Figure 8a   :func:`figure8a_instances_under_churn`
Figure 8b   :func:`figure8b_instances_under_loss`
Sec. 4.5    :func:`cost_analysis` — exchanges per node per cycle
==========  ===========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.convergence import (
    mean_convergence_factor,
    normalized_mean_variance,
    variance_reduction_curve,
)
from ..analysis.theory import (
    PUSH_PULL_CONVERGENCE_FACTOR,
    crash_variance_prediction,
    exchange_count_pmf,
    link_failure_convergence_bound,
)
from ..common.rng import RandomSource
from ..core.count import network_size_from_estimate
from ..core.epoch import EpochConfig
from ..core.functions import AverageFunction, VectorFunction
from ..core.instances import MultiInstanceCount
from ..simulator import make_simulator
from ..simulator.adversarial import targeted_instance_attack
from ..simulator.cycle_sim import CycleSimulator
from ..simulator.failures import (
    ChurnModel,
    CountCrashModel,
    FailureModel,
    PartitionOutageModel,
    ProportionalCrashModel,
    SuddenDeathModel,
)
from ..simulator.transport import TransportModel
from ..topology import effective_component_count
from ..topology.generators import TopologySpec, build_overlay
from .config import DEFAULT, ExperimentScale
from .reporting import render_table
from ..simulator.asynchrony import LAN, AsynchronyScenario
from .runner import (
    RunPlan,
    peak_values_for_count,
    repeat_simulations,
    repeat_traces,
    run_async_count,
    run_epoched_count,
    uniform_initial_values,
)

__all__ = [
    "FigureResult",
    "standard_topologies",
    "figure2_average_peak",
    "figure3a_convergence_vs_size",
    "figure3b_variance_reduction",
    "figure4a_watts_strogatz_beta",
    "figure4b_newscast_cache_size",
    "figure5_crash_variance",
    "figure6a_sudden_death",
    "figure6b_churn",
    "figure7a_link_failures",
    "figure7b_message_loss",
    "figure8a_instances_under_churn",
    "figure8b_instances_under_loss",
    "adaptive_count_epochs",
    "async_adaptive_count",
    "byzantine_degradation",
    "partition_recovery",
    "cost_analysis",
    "ALL_FIGURES",
]


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
    """Cap the paper's 20-neighbour views for very small test networks."""
    capped = min(degree, size - 1)
    # Lattice-based topologies need an even degree.
    return capped if capped % 2 == 0 else capped - 1


def _count_size_estimate(simulator: CycleSimulator) -> float:
    """The network size a COUNT epoch reports: reciprocal of the mean estimate."""
    mean_estimate = simulator.trace.final.mean
    if not math.isfinite(mean_estimate):
        return math.inf
    return network_size_from_estimate(mean_estimate)


def _count_node_size_extremes(simulator: CycleSimulator) -> tuple:
    """Min and max size estimate over the individual nodes of one run."""
    sizes = [
        network_size_from_estimate(estimate)
        for estimate in simulator.estimates().values()
    ]
    finite = [size for size in sizes if math.isfinite(size)]
    if not finite:
        return math.inf, math.inf
    has_infinite = any(math.isinf(size) for size in sizes)
    return min(finite), (math.inf if has_infinite else max(finite))


def _newscast_spec(size: int, cache: int = 30) -> TopologySpec:
    """The NEWSCAST overlay spec every figure uses: cache ``c`` capped for tiny networks."""
    return TopologySpec("newscast", degree=min(cache, max(2, size - 1)))


def _figure3_topologies(size: int) -> List[TopologySpec]:
    """Figure 3's overlays with the paper's view and cache sizes capped for ``size`` nodes."""
    return standard_topologies(
        degree=_effective_degree(size), newscast_cache=_newscast_spec(size).degree
    )


# ----------------------------------------------------------------------
# Figure 2 — behaviour of AVERAGE on the peak distribution
# ----------------------------------------------------------------------
def figure2_average_peak(
    scale: ExperimentScale = DEFAULT, cycles: int = 30
) -> FigureResult:
    """Figure 2: min/max estimates of AVERAGE started from a peak distribution.

    One node holds the value N, all others hold 0, so the true average is
    exactly 1; the network is a random overlay with 20-neighbour views.
    The reproduced rows give, per cycle, the minimum and maximum estimate
    over all nodes averaged over the repetitions.
    """
    size = scale.network_size
    degree = _effective_degree(size)
    topology = TopologySpec("random", degree=degree)
    values = peak_values_for_count(size, peak_value=float(size))

    # All repeats of the point run as one stacked replicated simulation.
    plan = RunPlan(topology=topology, size=size, cycles=cycles, values=values)
    traces = repeat_traces(scale.repeats, scale.seed, plan=plan)
    rows = []
    for cycle in range(cycles + 1):
        minima = [trace.record_at(cycle).minimum for trace in traces]
        maxima = [trace.record_at(cycle).maximum for trace in traces]
        rows.append(
            {
                "cycle": cycle,
                "min_estimate": float(np.mean(minima)),
                "max_estimate": float(np.mean(maxima)),
                "true_average": 1.0,
            }
        )
    return FigureResult(
        figure_id="2",
        title="AVERAGE protocol on the peak distribution (min/max estimates per cycle)",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 3a — convergence factor vs network size, per topology
# ----------------------------------------------------------------------
def figure3a_convergence_vs_size(
    scale: ExperimentScale = DEFAULT,
    sizes: Optional[Sequence[int]] = None,
    cycles: int = 20,
    topologies: Optional[Sequence[TopologySpec]] = None,
) -> FigureResult:
    """Figure 3(a): average convergence factor over 20 cycles vs network size."""
    if sizes is None:
        smallest = min(100, scale.network_size)
        points = max(2, min(scale.sweep_points, 6))
        sizes = sorted(
            {
                int(round(value))
                for value in np.geomspace(smallest, scale.network_size, points)
            }
        )
    rows = []
    for size in sizes:
        specs = topologies or _figure3_topologies(size)
        for spec in specs:
            plan = RunPlan(
                topology=spec, size=size, cycles=cycles, values=uniform_initial_values
            )
            traces = repeat_traces(scale.repeats, scale.seed, plan=plan)
            rows.append(
                {
                    "topology": spec.label(),
                    "network_size": size,
                    "convergence_factor": mean_convergence_factor(traces, cycles),
                    "theory_random": PUSH_PULL_CONVERGENCE_FACTOR,
                }
            )
    return FigureResult(
        figure_id="3a",
        title="Convergence factor over 20 cycles vs network size, per topology",
        rows=rows,
        parameters={"sizes": list(sizes), "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 3b — variance reduction per cycle, per topology
# ----------------------------------------------------------------------
def figure3b_variance_reduction(
    scale: ExperimentScale = DEFAULT,
    cycles: int = 50,
    topologies: Optional[Sequence[TopologySpec]] = None,
) -> FigureResult:
    """Figure 3(b): normalised variance vs cycle for every topology family."""
    size = scale.network_size
    specs = topologies or _figure3_topologies(size)
    rows = []
    for spec in specs:
        plan = RunPlan(
            topology=spec, size=size, cycles=cycles, values=uniform_initial_values
        )
        traces = repeat_traces(scale.repeats, scale.seed, plan=plan)
        curve = variance_reduction_curve(traces)
        for cycle, value in enumerate(curve):
            rows.append(
                {
                    "topology": spec.label(),
                    "cycle": cycle,
                    "normalized_variance": value,
                }
            )
    return FigureResult(
        figure_id="3b",
        title="Variance reduction (normalised by initial variance) per cycle",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 4a — Watts–Strogatz rewiring probability sweep
# ----------------------------------------------------------------------
def figure4a_watts_strogatz_beta(
    scale: ExperimentScale = DEFAULT,
    betas: Optional[Sequence[float]] = None,
    cycles: int = 20,
) -> FigureResult:
    """Figure 4(a): convergence factor as a function of the rewiring β."""
    size = scale.network_size
    degree = _effective_degree(size)
    if betas is None:
        betas = [float(b) for b in np.linspace(0.0, 1.0, max(3, scale.sweep_points))]
    rows = []
    for beta in betas:
        spec = TopologySpec("watts-strogatz", degree=degree, beta=float(beta))
        plan = RunPlan(
            topology=spec, size=size, cycles=cycles, values=uniform_initial_values
        )
        traces = repeat_traces(scale.repeats, scale.seed, plan=plan)
        rows.append(
            {
                "beta": float(beta),
                "convergence_factor": mean_convergence_factor(traces, cycles),
            }
        )
    return FigureResult(
        figure_id="4a",
        title="Convergence factor vs Watts-Strogatz rewiring probability",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 4b — NEWSCAST cache size sweep
# ----------------------------------------------------------------------
def figure4b_newscast_cache_size(
    scale: ExperimentScale = DEFAULT,
    cache_sizes: Optional[Sequence[int]] = None,
    cycles: int = 20,
) -> FigureResult:
    """Figure 4(b): convergence factor as a function of the NEWSCAST cache size c."""
    size = scale.network_size
    if cache_sizes is None:
        upper = min(50, size - 1)
        cache_sizes = sorted(
            {int(round(c)) for c in np.linspace(2, upper, max(3, scale.sweep_points))}
        )
    rows = []
    for cache in cache_sizes:
        spec = _newscast_spec(size, cache=int(cache))
        plan = RunPlan(
            topology=spec, size=size, cycles=cycles, values=uniform_initial_values
        )
        traces = repeat_traces(scale.repeats, scale.seed, plan=plan)
        rows.append(
            {
                "cache_size": int(cache),
                "convergence_factor": mean_convergence_factor(traces, cycles),
            }
        )
    return FigureResult(
        figure_id="4b",
        title="Convergence factor vs NEWSCAST cache size",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 5 — node crashes: variance of the estimated mean vs Pf
# ----------------------------------------------------------------------
def figure5_crash_variance(
    scale: ExperimentScale = DEFAULT,
    crash_probabilities: Optional[Sequence[float]] = None,
    cycles: int = 20,
) -> FigureResult:
    """Figure 5: Var(µ_20)/E(σ²_0) under per-cycle crashes, vs Theorem 1."""
    size = scale.network_size
    if crash_probabilities is None:
        crash_probabilities = [
            float(p) for p in np.linspace(0.0, 0.3, max(3, scale.sweep_points))
        ]
    repeats = max(scale.repeats, 10)
    specs = [
        ("complete", TopologySpec("complete")),
        ("newscast", _newscast_spec(size)),
    ]
    rows = []
    for label, spec in specs:
        for probability in crash_probabilities:
            failure_factory = (
                (lambda probability=probability: ProportionalCrashModel(probability))
                if probability > 0
                else None
            )
            plan = RunPlan(
                topology=spec,
                size=size,
                cycles=cycles,
                values=uniform_initial_values,
                failure_factory=failure_factory,
            )
            traces = repeat_traces(repeats, scale.seed, plan=plan)
            if probability > 0.0:
                measured = normalized_mean_variance(traces, at_cycle=cycles)
            else:
                measured = 0.0
            rows.append(
                {
                    "topology": label,
                    "crash_probability": float(probability),
                    "measured_normalized_variance": measured,
                    "predicted_normalized_variance": crash_variance_prediction(
                        probability, size, cycles
                    ),
                }
            )
    return FigureResult(
        figure_id="5",
        title="Variance of the estimated mean after 20 cycles vs crash probability",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": repeats},
    )


# ----------------------------------------------------------------------
# Figure 6a — COUNT under sudden death of half the network
# ----------------------------------------------------------------------
def figure6a_sudden_death(
    scale: ExperimentScale = DEFAULT,
    crash_cycles: Optional[Sequence[int]] = None,
    cycles: int = 30,
    fraction: float = 0.5,
) -> FigureResult:
    """Figure 6(a): size reported by COUNT when 50% of nodes die at cycle x."""
    size = scale.network_size
    spec = _newscast_spec(size)
    if crash_cycles is None:
        crash_cycles = sorted(
            {int(round(c)) for c in np.linspace(1, 20, max(3, scale.sweep_points))}
        )
    values = peak_values_for_count(size)
    rows = []
    for crash_cycle in crash_cycles:
        plan = RunPlan(
            topology=spec,
            size=size,
            cycles=cycles,
            values=values,
            failure_factory=lambda crash_cycle=crash_cycle: SuddenDeathModel(
                fraction, at_cycle=int(crash_cycle)
            ),
            collect=_count_size_estimate,
        )
        estimates = repeat_simulations(scale.repeats, scale.seed, plan=plan)
        finite = [e for e in estimates if math.isfinite(e)]
        rows.append(
            {
                "crash_cycle": int(crash_cycle),
                "mean_estimated_size": float(np.mean(finite)) if finite else math.inf,
                "min_estimated_size": float(np.min(finite)) if finite else math.inf,
                "max_estimated_size": float(np.max(finite)) if finite else math.inf,
                "diverged_runs": len(estimates) - len(finite),
                "true_size": size,
            }
        )
    return FigureResult(
        figure_id="6a",
        title="COUNT under sudden death of 50% of the nodes at a given cycle",
        rows=rows,
        parameters={
            "network_size": size,
            "cycles": cycles,
            "fraction": fraction,
            "repeats": scale.repeats,
        },
    )


# ----------------------------------------------------------------------
# Figure 6b — COUNT under continuous churn
# ----------------------------------------------------------------------
def figure6b_churn(
    scale: ExperimentScale = DEFAULT,
    substitution_rates: Optional[Sequence[int]] = None,
    cycles: int = 30,
) -> FigureResult:
    """Figure 6(b): size reported by COUNT under continuous node substitution.

    At every cycle a fixed number of nodes crash and the same number of
    brand-new nodes join (but do not participate in the running epoch);
    the paper sweeps 0–2500 substitutions per cycle at N = 10^5, i.e. up to
    2.5% of the network per cycle, which is the range reproduced here.
    """
    size = scale.network_size
    spec = _newscast_spec(size)
    if substitution_rates is None:
        top = max(1, int(round(0.025 * size)))
        substitution_rates = sorted(
            {int(round(r)) for r in np.linspace(0, top, max(3, scale.sweep_points))}
        )
    values = peak_values_for_count(size)
    rows = []
    for rate in substitution_rates:
        failure_factory = (
            (lambda rate=rate: ChurnModel(int(rate))) if rate > 0 else None
        )
        plan = RunPlan(
            topology=spec,
            size=size,
            cycles=cycles,
            values=values,
            failure_factory=failure_factory,
            collect=_count_size_estimate,
        )
        estimates = repeat_simulations(scale.repeats, scale.seed, plan=plan)
        finite = [e for e in estimates if math.isfinite(e)]
        rows.append(
            {
                "substitutions_per_cycle": int(rate),
                "mean_estimated_size": float(np.mean(finite)) if finite else math.inf,
                "min_estimated_size": float(np.min(finite)) if finite else math.inf,
                "max_estimated_size": float(np.max(finite)) if finite else math.inf,
                "diverged_runs": len(estimates) - len(finite),
                "true_size": size,
            }
        )
    return FigureResult(
        figure_id="6b",
        title="COUNT in a constant-size network with continuous churn",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 7a — link failures slow convergence down
# ----------------------------------------------------------------------
def figure7a_link_failures(
    scale: ExperimentScale = DEFAULT,
    link_failure_probabilities: Optional[Sequence[float]] = None,
    cycles: int = 20,
) -> FigureResult:
    """Figure 7(a): convergence factor vs link failure probability P_d."""
    size = scale.network_size
    spec = _newscast_spec(size)
    if link_failure_probabilities is None:
        link_failure_probabilities = [
            float(p) for p in np.linspace(0.0, 0.9, max(3, scale.sweep_points))
        ]
    values = peak_values_for_count(size)
    rows = []
    for probability in link_failure_probabilities:
        transport = TransportModel(link_failure_probability=float(probability))
        plan = RunPlan(
            topology=spec, size=size, cycles=cycles, values=values, transport=transport
        )
        traces = repeat_traces(scale.repeats, scale.seed, plan=plan)
        rows.append(
            {
                "link_failure_probability": float(probability),
                "convergence_factor": mean_convergence_factor(traces, cycles),
                "theoretical_upper_bound": link_failure_convergence_bound(float(probability)),
            }
        )
    return FigureResult(
        figure_id="7a",
        title="Convergence factor of COUNT vs link failure probability",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 7b — message omissions distort the estimate
# ----------------------------------------------------------------------
def figure7b_message_loss(
    scale: ExperimentScale = DEFAULT,
    loss_fractions: Optional[Sequence[float]] = None,
    cycles: int = 30,
) -> FigureResult:
    """Figure 7(b): min/max size reported by COUNT vs fraction of lost messages."""
    size = scale.network_size
    spec = _newscast_spec(size)
    if loss_fractions is None:
        loss_fractions = [
            float(p) for p in np.linspace(0.0, 0.5, max(3, scale.sweep_points))
        ]
    values = peak_values_for_count(size)
    rows = []
    for fraction in loss_fractions:
        transport = TransportModel(message_loss_probability=float(fraction))
        plan = RunPlan(
            topology=spec,
            size=size,
            cycles=cycles,
            values=values,
            transport=transport,
            collect=_count_node_size_extremes,
        )
        extremes = repeat_simulations(scale.repeats, scale.seed, plan=plan)
        minima = [low for low, _ in extremes if math.isfinite(low)]
        maxima = [high for _, high in extremes if math.isfinite(high)]
        rows.append(
            {
                "message_loss_fraction": float(fraction),
                "mean_min_size": float(np.mean(minima)) if minima else math.inf,
                "mean_max_size": float(np.mean(maxima)) if maxima else math.inf,
                "worst_min_size": float(np.min(minima)) if minima else math.inf,
                "worst_max_size": float(np.max(maxima)) if maxima else math.inf,
                "true_size": size,
            }
        )
    return FigureResult(
        figure_id="7b",
        title="Min/max size estimated by COUNT vs fraction of messages lost",
        rows=rows,
        parameters={"network_size": size, "cycles": cycles, "repeats": scale.repeats},
    )


# ----------------------------------------------------------------------
# Figure 8 — multiple concurrent instances
# ----------------------------------------------------------------------
def _run_multi_instance(
    scale: ExperimentScale,
    instance_counts: Sequence[int],
    cycles: int,
    transport: TransportModel,
    failure_factory,
    figure_id: str,
    title: str,
    extra_parameters: Dict[str, object],
) -> FigureResult:
    size = scale.network_size
    spec = _newscast_spec(size)
    rows = []
    for count in instance_counts:
        def one_run(index: int, rng: RandomSource, count=count):
            overlay = build_overlay(spec, size, rng.child("topology"))
            bundle = MultiInstanceCount.create(
                overlay.node_ids(), int(count), rng.child("instances")
            )
            simulator = make_simulator(
                overlay=overlay,
                function=bundle.function,
                initial_values=bundle.initial_values,
                rng=rng.child("simulation"),
                transport=transport,
                failure_model=failure_factory() if failure_factory else None,
            )
            simulator.run(cycles)
            reported = bundle.size_estimates(simulator.states())
            finite = [value for value in reported.values() if math.isfinite(value)]
            if not finite:
                return math.inf, math.inf
            return min(finite), max(finite)

        extremes = repeat_simulations(scale.repeats, scale.seed, one_run)
        minima = [low for low, _ in extremes if math.isfinite(low)]
        maxima = [high for _, high in extremes if math.isfinite(high)]
        rows.append(
            {
                "instances": int(count),
                "mean_min_size": float(np.mean(minima)) if minima else math.inf,
                "mean_max_size": float(np.mean(maxima)) if maxima else math.inf,
                "worst_min_size": float(np.min(minima)) if minima else math.inf,
                "worst_max_size": float(np.max(maxima)) if maxima else math.inf,
                "true_size": size,
            }
        )
    parameters = {"network_size": size, "cycles": cycles, "repeats": scale.repeats}
    parameters.update(extra_parameters)
    return FigureResult(figure_id=figure_id, title=title, rows=rows, parameters=parameters)


def figure8a_instances_under_churn(
    scale: ExperimentScale = DEFAULT,
    instance_counts: Optional[Sequence[int]] = None,
    cycles: int = 30,
    crash_fraction_per_cycle: float = 0.01,
) -> FigureResult:
    """Figure 8(a): multi-instance COUNT accuracy under 1%-per-cycle crashes.

    The paper crashes 1000 of 10^5 nodes per cycle (1%); the same fraction
    of the scaled network is used here.
    """
    size = scale.network_size
    if instance_counts is None:
        instance_counts = sorted(
            {int(round(c)) for c in np.linspace(1, 50, max(3, scale.sweep_points))}
        )
    crashes = max(1, int(round(crash_fraction_per_cycle * size)))
    return _run_multi_instance(
        scale,
        instance_counts,
        cycles,
        TransportModel(),
        lambda: CountCrashModel(crashes),
        figure_id="8a",
        title="Multi-instance COUNT (trimmed mean) under per-cycle crashes",
        extra_parameters={"crashes_per_cycle": crashes},
    )


def figure8b_instances_under_loss(
    scale: ExperimentScale = DEFAULT,
    instance_counts: Optional[Sequence[int]] = None,
    cycles: int = 30,
    message_loss: float = 0.2,
) -> FigureResult:
    """Figure 8(b): multi-instance COUNT accuracy with 20% of messages lost."""
    if instance_counts is None:
        instance_counts = sorted(
            {int(round(c)) for c in np.linspace(1, 50, max(3, scale.sweep_points))}
        )
    return _run_multi_instance(
        scale,
        instance_counts,
        cycles,
        TransportModel(message_loss_probability=message_loss),
        None,
        figure_id="8b",
        title="Multi-instance COUNT (trimmed mean) with message loss",
        extra_parameters={"message_loss": message_loss},
    )


# ----------------------------------------------------------------------
# Sections 4.1/4.3/5 — the practical protocol: adaptive epoched COUNT
# ----------------------------------------------------------------------
def adaptive_count_epochs(
    scale: ExperimentScale = DEFAULT,
    epochs: int = 10,
    cycles_per_epoch: int = 30,
    concurrent_target: float = 20.0,
    churn_fraction_per_cycle: float = 0.005,
    message_loss: float = 0.05,
    initial_estimate_factor: float = 0.25,
) -> FigureResult:
    """The size-monitoring scenario the paper is named for, end to end.

    A NEWSCAST network under continuous churn and message loss runs the
    practical protocol for ``epochs`` consecutive epochs: per-epoch
    multi-leader self-election at ``P_lead = C/N̂``, γ cycles of map-based
    COUNT, trimmed-mean reduction, and the estimate fed back into the
    next election.  The election is seeded with a deliberately wrong size
    (``initial_estimate_factor`` times the truth), so the rows show the
    feedback loop pulling ``N̂`` — and with it the number of concurrent
    leaders — back to the true size within the first epochs.

    The paper has no single figure for this composite run (it is the
    protocol of Sections 4.1/4.3/5 with the technique of 7.3); the rows
    report, per epoch, the mean/min/max adopted estimate over the
    repetitions, the average leader count, and the churn-driven
    synchronisation events.
    """
    size = scale.network_size
    spec = _newscast_spec(size)
    churn = max(1, int(round(churn_fraction_per_cycle * size)))
    transport = TransportModel(message_loss_probability=float(message_loss))
    config = EpochConfig(cycles_per_epoch=cycles_per_epoch)

    def one_run(index: int, rng: RandomSource):
        result = run_epoched_count(
            spec,
            size,
            epochs,
            rng,
            concurrent_target=concurrent_target,
            initial_estimate=max(2.0, initial_estimate_factor * size),
            epoch_config=config,
            transport=transport,
            failure_factory=lambda epoch_id: ChurnModel(churn),
            record_every=cycles_per_epoch,
        )
        return result.records

    runs = repeat_simulations(scale.repeats, scale.seed, one_run)
    rows = []
    for position in range(epochs):
        records = [run[position] for run in runs]
        estimates = [record.size_estimate for record in records]
        finite = [value for value in estimates if math.isfinite(value)]
        rows.append(
            {
                "epoch": records[0].epoch_id,
                "mean_estimated_size": float(np.mean(finite)) if finite else math.inf,
                "min_estimated_size": float(np.min(finite)) if finite else math.inf,
                "max_estimated_size": float(np.max(finite)) if finite else math.inf,
                "mean_leaders": float(np.mean([record.leader_count for record in records])),
                "mean_joined": float(np.mean([record.joined_count for record in records])),
                "dry_runs": sum(record.dry for record in records),
                "true_size": size,
            }
        )
    return FigureResult(
        figure_id="adaptive",
        title="Adaptive multi-epoch COUNT under churn and message loss (practical protocol)",
        rows=rows,
        parameters={
            "network_size": size,
            "epochs": epochs,
            "cycles_per_epoch": cycles_per_epoch,
            "concurrent_target": concurrent_target,
            "churn_per_cycle": churn,
            "message_loss": message_loss,
            "initial_estimate_factor": initial_estimate_factor,
            "repeats": scale.repeats,
        },
    )


def async_adaptive_count(
    scale: ExperimentScale = DEFAULT,
    epochs: int = 6,
    cycles_per_epoch: int = 25,
    concurrent_target: float = 20.0,
    scenario: Optional[AsynchronyScenario] = None,
    initial_estimate_factor: float = 0.25,
) -> FigureResult:
    """The adaptive size-monitoring run of :func:`adaptive_count_epochs`,
    executed *asynchronously*.

    Same protocol, same feedback loop, same deliberately wrong initial
    estimate — but per-node drifted timers instead of global cycles,
    sampled message latencies with exchange timeouts, message loss during
    epochs, and epidemic epoch synchronisation doing real work.  The
    default scenario is 1% clock drift with 5% message loss; the rows
    report the per-epoch mean/min/max size estimate over the repetitions
    together with leader counts and the synchronisation traffic, and
    should match the cycle-model figure within sampling noise — the
    central cross-engine claim of the reproduction.
    """
    size = scale.network_size
    used_scenario = scenario or LAN.with_overrides(
        name="adaptive-async", clock_drift=0.01, message_loss=0.05
    )
    spec = TopologySpec("random", degree=_effective_degree(size))
    config = EpochConfig(cycles_per_epoch=cycles_per_epoch)

    def one_run(index: int, rng: RandomSource):
        protocol = run_async_count(
            spec,
            size,
            epochs,
            rng,
            scenario=used_scenario,
            concurrent_target=concurrent_target,
            initial_estimate=max(2.0, initial_estimate_factor * size),
            epoch_config=config,
            record_every=cycles_per_epoch,
        )
        return protocol

    runs = repeat_simulations(scale.repeats, scale.seed, one_run)
    per_run = [
        (protocol.epoch_records(), protocol.size_estimates()) for protocol in runs
    ]
    rows = []
    for position in range(epochs):
        records = []
        estimates = []
        for epoch_records, adopted in per_run:
            if position < len(epoch_records):
                records.append(epoch_records[position])
                estimates.append(adopted[epoch_records[position].epoch_id])
        finite = [value for value in estimates if math.isfinite(value)]
        rows.append(
            {
                "epoch": records[0].epoch_id if records else position,
                "mean_estimated_size": float(np.mean(finite)) if finite else math.inf,
                "min_estimated_size": float(np.min(finite)) if finite else math.inf,
                "max_estimated_size": float(np.max(finite)) if finite else math.inf,
                "mean_leaders": float(
                    np.mean([record.leader_count for record in records])
                ) if records else 0.0,
                "mean_jump_reporters": float(
                    np.mean([record.jump_reporters for record in records])
                ) if records else 0.0,
                "dry_runs": sum(record.dry for record in records),
                "true_size": size,
            }
        )
    return FigureResult(
        figure_id="adaptive-async",
        title="Adaptive COUNT on the asynchronous engine (drift + loss + timeouts)",
        rows=rows,
        parameters={
            "network_size": size,
            "epochs": epochs,
            "cycles_per_epoch": cycles_per_epoch,
            "concurrent_target": concurrent_target,
            "scenario": used_scenario.label(),
            "clock_drift": used_scenario.clock_drift,
            "message_loss": used_scenario.message_loss,
            "initial_estimate_factor": initial_estimate_factor,
            "repeats": scale.repeats,
        },
    )


# ----------------------------------------------------------------------
# Robustness extensions — byzantine reporters and partition outages
# ----------------------------------------------------------------------
def byzantine_degradation(
    scale: ExperimentScale = DEFAULT,
    fractions: Optional[Sequence[float]] = None,
    cycles: int = 30,
    instance_count: int = 16,
    instance_fraction: float = 0.4,
) -> FigureResult:
    """COUNT estimate degradation vs byzantine reporter fraction.

    A colluding fraction of the nodes mounts a targeted attack on
    multi-instance COUNT: every cycle they overwrite the first
    ``⌈instance_fraction · t⌉`` instance components of their own state
    with 0, draining mass from exactly those instances (see
    :func:`~repro.simulator.adversarial.targeted_instance_attack`).  The
    rows compare, per byzantine fraction, the median relative error of
    the size estimate an *honest* node reports under three reduction
    rules: a single (attacked) instance, the paper's trimmed mean, and
    the byzantine-hardened median-of-instances — the quantitative case
    for the hardened reducer.

    All repeats of one sweep point run as a single replica-batched
    simulation on the vectorized NEWSCAST fast path.
    """
    size = scale.network_size
    spec = _newscast_spec(size)
    if fractions is None:
        fractions = [float(f) for f in np.linspace(0.0, 0.2, max(3, scale.sweep_points))]
    rows = []
    for fraction in fractions:
        # resolve_values / _failure_model run once per repetition in
        # replica order on both execution paths, so these side lists
        # line up with the collected results by index.
        bundles: List[MultiInstanceCount] = []
        models: List[object] = []

        def make_values(count: int, rng: RandomSource) -> List[tuple]:
            bundle = MultiInstanceCount.create(
                list(range(count)), instance_count, rng.child("instances")
            )
            bundles.append(bundle)
            return [bundle.initial_values[node] for node in range(count)]

        def make_failure(fraction=fraction):
            model = (
                targeted_instance_attack(
                    float(fraction), instance_fraction=instance_fraction
                )
                if fraction > 0
                else None
            )
            models.append(model)
            return model

        def collect(simulator):
            ids = np.asarray(simulator.participant_ids(), dtype=np.int64)
            return ids, np.array(simulator.state_array(), dtype=np.float64)

        plan = RunPlan(
            topology=spec,
            size=size,
            cycles=cycles,
            values=make_values,
            function_factory=lambda: VectorFunction(
                [AverageFunction() for _ in range(instance_count)]
            ),
            failure_factory=make_failure,
            collect=collect,
        )
        results = repeat_simulations(scale.repeats, scale.seed, plan=plan)
        errors: Dict[str, List[float]] = {"single": [], "trimmed": [], "median": []}
        for index, (ids, block) in enumerate(results):
            bundle = bundles[index]
            model = models[index]
            honest = np.ones(ids.size, dtype=bool)
            if model is not None:
                honest &= ~np.isin(ids, model.byzantine_ids)
            honest_block = block[honest]
            single = np.full(honest_block.shape[0], np.inf)
            positive = honest_block[:, 0] > 0.0
            single[positive] = 1.0 / honest_block[positive, 0]
            reduced = {
                "single": single,
                "trimmed": bundle.size_estimates_array(honest_block),
                "median": replace(bundle, reducer="median").size_estimates_array(
                    honest_block
                ),
            }
            for key, sizes in reduced.items():
                errors[key].append(float(np.median(np.abs(sizes - size) / size)))
        rows.append(
            {
                "byzantine_fraction": float(fraction),
                "single_instance_error": float(np.mean(errors["single"])),
                "trimmed_error": float(np.mean(errors["trimmed"])),
                "median_error": float(np.mean(errors["median"])),
                "true_size": size,
            }
        )
    return FigureResult(
        figure_id="byzantine",
        title="COUNT error of honest nodes vs byzantine reporter fraction, per reducer",
        rows=rows,
        parameters={
            "network_size": size,
            "cycles": cycles,
            "instances": instance_count,
            "attacked_instance_fraction": instance_fraction,
            "repeats": scale.repeats,
        },
    )


def partition_recovery(
    scale: ExperimentScale = DEFAULT,
    cycles: int = 30,
    partition_start: int = 5,
    partition_length: int = 5,
    boundary_fraction: float = 0.5,
) -> FigureResult:
    """AVERAGE through a partition outage: split, diverge, heal, re-converge.

    A NEWSCAST network runs AVERAGE while a
    :class:`~repro.simulator.failures.PartitionOutageModel` severs the
    lower ``boundary_fraction`` of the id space for
    ``partition_length`` cycles.  The rows track, per cycle, the number
    of connected components of the *effective* communication graph
    (overlay edges minus blocked pairs), each side's mean estimate, and
    the global variance: during the outage the overlay demonstrably
    splits in two and the side means drift to the two local averages;
    after the heal the halves re-merge through surviving cross-side
    cache entries and the gap between the side means collapses again.
    """
    size = scale.network_size
    spec = _newscast_spec(size)
    heal_cycle = partition_start + partition_length
    reachability = PartitionOutageModel.split(
        size, boundary_fraction, partition_start, heal_cycle
    )
    rng = RandomSource(scale.seed)
    values = uniform_initial_values(size, rng.child("values"))
    overlay = build_overlay(spec, size, rng.child("topology"))
    simulator = make_simulator(
        overlay=overlay,
        function=AverageFunction(),
        initial_values=values,
        rng=rng.child("simulation"),
        reachability=reachability,
    )
    boundary = reachability.boundary
    true_mean = float(np.mean(values))
    rows = []
    for cycle in range(1, cycles + 1):
        simulator.run_cycle()
        active = reachability.is_active(cycle)
        components = effective_component_count(
            overlay, reachability if active else None, cycle
        )
        ids = np.asarray(simulator.participant_ids(), dtype=np.int64)
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
    return FigureResult(
        figure_id="partition",
        title="AVERAGE through a partition outage: overlay split and re-convergence",
        rows=rows,
        parameters={
            "network_size": size,
            "cycles": cycles,
            "partition_window": f"[{partition_start}, {heal_cycle})",
            "boundary": boundary,
            "true_mean": true_mean,
        },
    )


# ----------------------------------------------------------------------
# Section 4.5 — cost analysis
# ----------------------------------------------------------------------
def cost_analysis(
    scale: ExperimentScale = DEFAULT, cycles: int = 10, max_count: int = 8
) -> FigureResult:
    """Section 4.5: distribution of exchanges per node per cycle vs 1 + Poisson(1)."""
    size = scale.network_size
    degree = _effective_degree(size)
    spec = TopologySpec("random", degree=degree)
    rng = RandomSource(scale.seed)
    values = uniform_initial_values(size, rng.child("values"))
    overlay = build_overlay(spec, size, rng.child("topology"))
    simulator = CycleSimulator(
        overlay=overlay,
        function=AverageFunction(),
        initial_values=values,
        rng=rng.child("simulation"),
    )
    observed: Dict[int, int] = {}
    samples = 0
    for _ in range(cycles):
        simulator.run_cycle()
        for count in simulator.last_cycle_contact_counts.values():
            observed[count] = observed.get(count, 0) + 1
            samples += 1
    rows = []
    for count in range(0, max_count + 1):
        rows.append(
            {
                "exchanges_per_cycle": count,
                "observed_fraction": observed.get(count, 0) / samples if samples else 0.0,
                "predicted_fraction": exchange_count_pmf(count),
            }
        )
    mean_observed = (
        sum(count * frequency for count, frequency in observed.items()) / samples
        if samples
        else 0.0
    )
    return FigureResult(
        figure_id="cost",
        title="Exchanges per node per cycle vs the 1 + Poisson(1) model",
        rows=rows,
        parameters={
            "network_size": size,
            "cycles": cycles,
            "observed_mean": mean_observed,
            "predicted_mean": 2.0,
        },
    )


#: Registry used by the examples and by EXPERIMENTS.md generation.
ALL_FIGURES = {
    "2": figure2_average_peak,
    "3a": figure3a_convergence_vs_size,
    "3b": figure3b_variance_reduction,
    "4a": figure4a_watts_strogatz_beta,
    "4b": figure4b_newscast_cache_size,
    "5": figure5_crash_variance,
    "6a": figure6a_sudden_death,
    "6b": figure6b_churn,
    "7a": figure7a_link_failures,
    "7b": figure7b_message_loss,
    "8a": figure8a_instances_under_churn,
    "8b": figure8b_instances_under_loss,
    "adaptive": adaptive_count_epochs,
    "adaptive-async": async_adaptive_count,
    "byzantine": byzantine_degradation,
    "partition": partition_recovery,
    "cost": cost_analysis,
}
