"""Asynchrony scenarios: declarative impairment bundles for async runs.

The paper's practical protocol is specified against an asynchronous
network — latencies, exchange timeouts, per-node clock drift, churn,
message loss.  This module packages those axes into one
declarative :class:`AsynchronyScenario` record and builds the matching
:class:`~repro.simulator.async_engine.AsyncPracticalSimulator` runs.

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
once).  Build custom scenarios with
:meth:`AsynchronyScenario.with_overrides`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

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
    "build_async_average",
    "build_async_count",
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
