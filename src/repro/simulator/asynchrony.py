"""Asynchrony scenarios: declarative impairment bundles for async runs.

The paper's practical protocol is specified against an asynchronous
network — latencies, exchange timeouts, per-node clock drift, churn,
message loss.  This module packages those axes into one
declarative :class:`AsynchronyScenario` record, the one configuration of
:class:`~repro.simulator.async_engine.AsyncPracticalSimulator` (whose
module also holds the two run builders, ``build_async_average`` and
``build_async_count``).

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
  window, applied by the engine after each window; joiners boot at the
  next epoch boundary.

Three presets cover the library's runs: :data:`LAN` (the default),
:data:`WAN` (heavy-tailed latencies) and :data:`HOSTILE` (everything at
once).  Build custom scenarios with
:meth:`AsynchronyScenario.with_overrides`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..common.errors import ConfigurationError
from ..common.validation import (
    require_non_negative, require_non_negative_int, require_probability
)
from .transport import DelayModel, TransportModel

__all__ = ["AsynchronyScenario", "LAN", "WAN", "HOSTILE"]


@dataclass(frozen=True)
class AsynchronyScenario:
    """One bundle of asynchrony impairments, expressed in cycle units.

    All times are fractions of the nominal cycle length δ = 1; the
    engine scales them by the :class:`~repro.core.epoch.EpochConfig` in
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

