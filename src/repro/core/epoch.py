"""Epochs: automatic restarting and synchronisation (Section 4.1 and 4.3).

The basic averaging protocol converges to the aggregate that existed when
estimates were initialised; to remain *adaptive* the protocol is restarted
periodically.  Execution is divided into consecutive epochs of length Δ;
within an epoch each node runs γ cycles of length δ and then terminates,
reporting its converged estimate as the aggregation output for the epoch.

Synchronisation is epidemic: epoch identifiers ride on every exchange
message, and a node that hears about a later epoch immediately abandons
its current one and joins the newer epoch, so the whole network follows
the pace set by the fastest nodes.

This module provides the timing record shared by the practical protocol.
The engines keep the
per-node epoch identifiers themselves, as arrays: the cycle-driven
:class:`~repro.simulator.epochs.EpochDriver` and the asynchronous
:class:`~repro.simulator.async_engine.AsyncPracticalSimulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..common.errors import ConfigurationError
from ..common.validation import require, require_positive, require_positive_int

__all__ = ["EpochConfig"]


@dataclass(frozen=True)
class EpochConfig:
    """Timing parameters of the practical protocol.

    Attributes
    ----------
    cycle_length:
        δ — the real-time length of one cycle (the period of the active
        thread).
    cycles_per_epoch:
        γ — how many cycles a node executes before terminating the epoch
        and reporting its estimate.  Section 4.5 derives it from a target
        accuracy ε, the ratio of final to initial variance: after γ cycles
        the expected variance is ρ^γ times the initial one, so
        γ = ⌈log ε / log ρ⌉ for an overlay of per-cycle convergence factor
        ρ (``1/(2√e)`` for sufficiently random overlays).
    epoch_length:
        Δ — the real-time length of an epoch, i.e. how often the protocol
        restarts with fresh local values.  Defaults to ``γ · δ`` (epochs
        back to back); larger values leave idle time between epochs,
        smaller values make epochs overlap (allowed by the paper, handled
        via epoch identifiers).
    """

    cycle_length: float = 1.0
    cycles_per_epoch: int = 30
    epoch_length: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.cycle_length, "cycle_length")
        require_positive_int(self.cycles_per_epoch, "cycles_per_epoch")
        if self.epoch_length is not None:
            require_positive(self.epoch_length, "epoch_length")

    @property
    def effective_epoch_length(self) -> float:
        """Δ, defaulting to γ·δ when not set explicitly."""
        if self.epoch_length is not None:
            return self.epoch_length
        return self.cycle_length * self.cycles_per_epoch

    def epoch_start_time(self, epoch_id: int) -> float:
        """Nominal global start time of a given epoch (epoch 0 starts at 0)."""
        if epoch_id < 0:
            raise ConfigurationError("epoch_id must be non-negative")
        return epoch_id * self.effective_epoch_length

    def epoch_for_time(self, time: float) -> int:
        """The epoch nominally in progress at global time ``time``."""
        require(0 <= time < math.inf, f"time must be non-negative and finite, got {time!r}")
        return int(time // self.effective_epoch_length)
