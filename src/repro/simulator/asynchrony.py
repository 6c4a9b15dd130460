"""Asynchrony scenarios: declarative impairment bundles for async runs.

The paper's practical protocol is specified against an asynchronous
network — latencies, exchange timeouts, per-node clock drift, churn,
message loss.  This module packages those axes into one
declarative :class:`AsynchronyScenario` record, builds the matching
:class:`~repro.simulator.async_engine.AsyncPracticalSimulator` runs, and
provides the cross-engine validation harness that checks an asynchronous
execution against the synchronous cycle model — the paper's own
justification for analysing the protocol in the cycle abstraction.

Scenario axes:

* **Latency** — ``uniform`` or heavy-tailed ``lognormal`` message delays
  (see :class:`~repro.simulator.transport.DelayModel`), plus the
  exchange ``timeout`` of Section 4.2.  With lognormal tails a
  finite timeout genuinely bites, turning slow round trips into the
  response-lost failure mode.
* **Clock drift** — per-node rates in ``[1 - drift, 1 + drift]``; cycles
  and epochs stretch per node, epochs fall out of lock step, and the
  epidemic synchronisation of Section 4.3 has real work to do.
* **Loss** — per-message omission ``P_m`` exactly as in the cycle
  engines.
* **Churn** — a fixed number of crash+join pairs per cycle-equivalent
  window, applied through the engine's window hook; joiners boot at the
  next epoch boundary.

Three presets cover the library's runs: :data:`LAN` (the default),
:data:`WAN` (heavy-tailed latencies) and :data:`HOSTILE` (everything at
once).  Build custom scenarios and grids with
:meth:`AsynchronyScenario.with_overrides` / :func:`validation_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..common.validation import (
    require_non_negative, require_non_negative_int, require_probability
)
from ..core.count import LeaderElection
from ..core.epoch import EpochConfig
from ..topology.base import OverlayProvider
from .async_engine import (
    AsyncAverageProtocol,
    AsyncCountProtocol,
    AsyncPracticalSimulator,
)
from .transport import DelayModel, TransportModel

__all__ = [
    "AsynchronyScenario",
    "LAN",
    "WAN",
    "HOSTILE",
    "validation_grid",
    "build_async_average",
    "build_async_count",
    "EngineAgreement",
    "compare_average_convergence",
]


@dataclass(frozen=True)
class AsynchronyScenario:
    """One bundle of asynchrony impairments, expressed in cycle units.

    All times are fractions of the nominal cycle length δ = 1; the
    builders scale them by the :class:`~repro.core.epoch.EpochConfig` in
    use.
    """

    name: str = "lan"
    latency: str = "uniform"
    min_delay: float = 0.01
    max_delay: float = 0.1
    latency_sigma: float = 0.5
    timeout: float = 0.5
    clock_drift: float = 0.0
    message_loss: float = 0.0
    churn_per_window: int = 0

    def __post_init__(self) -> None:
        # Every field is checked here, at construction: the latency fields
        # by building the delay model once (its checks are the only ones).
        self.delay_model()
        require_non_negative(self.clock_drift, "clock_drift")
        require_probability(self.message_loss, "message_loss")
        if self.clock_drift >= 1.0:
            raise ConfigurationError("clock_drift must be below 1 (a clock cannot stop)")
        require_non_negative_int(self.churn_per_window, "churn_per_window")

    # ------------------------------------------------------------------
    # Derived models
    # ------------------------------------------------------------------
    def delay_model(self, cycle_length: float = 1.0) -> DelayModel:
        """The latency/timeout model, scaled to a concrete cycle length."""
        return DelayModel(
            min_delay=self.min_delay * cycle_length,
            max_delay=self.max_delay * cycle_length,
            timeout=self.timeout * cycle_length,
            distribution=self.latency,
            sigma=self.latency_sigma,
        )

    def transport(self) -> TransportModel:
        """The loss model shared with the cycle engines."""
        return TransportModel(message_loss_probability=self.message_loss)

    def with_overrides(self, **overrides) -> "AsynchronyScenario":
        """A copy of this scenario with selected fields replaced."""
        return replace(self, **overrides)

    def window_hook(self):
        """The engine window hook applying churn (``None`` when off)."""
        churn = self.churn_per_window
        if churn <= 0:
            return None

        def hook(simulator: AsyncPracticalSimulator, window_index: int, rng: RandomSource) -> None:
            active = simulator.active_ids()
            count = min(churn, max(0, active.size - 1))
            if count > 0:
                victims = active[rng.sample_indices(active.size, count)]
                simulator.crash_nodes(victims)
                simulator.add_nodes(count, rng)

        return hook

    def label(self) -> str:
        """Compact human-readable description used in reports."""
        parts = [self.name, self.latency]
        if self.clock_drift:
            parts.append(f"drift={self.clock_drift:.0%}")
        if self.message_loss:
            parts.append(f"loss={self.message_loss:.0%}")
        if self.churn_per_window:
            parts.append(f"churn={self.churn_per_window}/cycle")
        return " ".join(parts)


#: A quiet local network: short uniform delays, generous timeout.
LAN = AsynchronyScenario(name="lan")

#: Heavy-tailed WAN latencies where the exchange timeout genuinely bites.
WAN = AsynchronyScenario(
    name="wan",
    latency="lognormal",
    min_delay=0.02,
    max_delay=0.3,
    latency_sigma=0.8,
    timeout=0.6,
)

#: Everything at once: drift, loss, WAN latencies and churn.
HOSTILE = AsynchronyScenario(
    name="hostile",
    latency="lognormal",
    min_delay=0.02,
    max_delay=0.3,
    latency_sigma=0.8,
    timeout=0.6,
    clock_drift=0.02,
    message_loss=0.05,
    churn_per_window=1,
)


def validation_grid(
    drifts: Sequence[float] = (0.0, 0.01, 0.05),
    losses: Sequence[float] = (0.0, 0.05),
) -> List[AsynchronyScenario]:
    """The cross-engine validation grid: drift × loss over LAN latencies."""
    grid = []
    for drift in drifts:
        for loss in losses:
            grid.append(
                LAN.with_overrides(
                    name=f"grid(d={drift:g},l={loss:g})",
                    clock_drift=drift,
                    message_loss=loss,
                )
            )
    return grid


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
    config = epoch_config or EpochConfig(cycles_per_epoch=1_000_000)
    protocol = AsyncAverageProtocol(values)
    simulator = AsyncPracticalSimulator(
        overlay=overlay,
        protocol=protocol,
        epoch_config=config,
        rng=rng,
        delay_model=scenario.delay_model(config.cycle_length),
        transport=scenario.transport(),
        clock_drift=scenario.clock_drift,
        record_every=record_every,
        window_hook=scenario.window_hook(),
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
    config = epoch_config or EpochConfig()
    size = overlay.size()
    election = LeaderElection(
        concurrent_target=concurrent_target,
        estimated_size=float(initial_estimate if initial_estimate is not None else size),
    )
    protocol = AsyncCountProtocol(election)
    simulator = AsyncPracticalSimulator(
        overlay=overlay,
        protocol=protocol,
        epoch_config=config,
        rng=rng,
        delay_model=scenario.delay_model(config.cycle_length),
        transport=scenario.transport(),
        clock_drift=scenario.clock_drift,
        record_every=record_every,
        window_hook=scenario.window_hook(),
    )
    return simulator, protocol


# ----------------------------------------------------------------------
# Cross-engine validation harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineAgreement:
    """Convergence comparison between an async run and the cycle model."""

    async_factor: float
    cycle_factor: float
    async_final_variance_ratio: float
    cycle_final_variance_ratio: float

    @property
    def factor_difference(self) -> float:
        """Absolute difference of the per-cycle convergence factors."""
        return abs(self.async_factor - self.cycle_factor)

    def agree_within(self, tolerance: float) -> bool:
        """Whether the convergence factors agree within ``tolerance``."""
        return self.factor_difference <= tolerance


def compare_average_convergence(
    overlay_factory,
    values: Dict[int, float],
    cycles: int,
    rng: RandomSource,
    scenario: AsynchronyScenario = LAN,
) -> EngineAgreement:
    """Run AVERAGE on both execution models and compare convergence.

    ``overlay_factory(child_rng)`` must build a fresh overlay per engine
    (the engines mutate overlay state).  The async engine bins its
    continuous timeline into cycle-equivalent windows of length δ (the
    :meth:`~repro.core.epoch.EpochConfig.cycle_for_time` rule, applied
    by ``AsyncPracticalSimulator.run_until``), so both factors are the
    geometric-mean variance reduction over the same number of cycles.
    """
    from . import make_simulator  # deferred: package init imports this module

    async_overlay = overlay_factory(rng.child("async", "overlay"))
    simulator, _ = build_async_average(
        async_overlay, values, rng.child("async", "run"), scenario
    )
    simulator.run(cycles)
    async_trace = simulator.trace

    cycle_overlay = overlay_factory(rng.child("cycle", "overlay"))
    cycle_simulator = make_simulator(
        overlay=cycle_overlay,
        function=_average_function(),
        initial_values={node: value for node, value in values.items()},
        rng=rng.child("cycle", "run"),
        transport=scenario.transport(),
    )
    cycle_simulator.run(cycles)
    cycle_trace = cycle_simulator.trace

    async_ratios = async_trace.variance_reduction()
    cycle_ratios = cycle_trace.variance_reduction()
    return EngineAgreement(
        async_factor=async_trace.average_convergence_factor(cycles),
        cycle_factor=cycle_trace.average_convergence_factor(cycles),
        async_final_variance_ratio=float(async_ratios[-1]),
        cycle_final_variance_ratio=float(cycle_ratios[-1]),
    )


def _average_function():
    from ..core.functions import AverageFunction

    return AverageFunction()
