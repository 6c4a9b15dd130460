"""Communication failure and delay models.

The paper's system model (Section 2) allows messages to be lost and links
between pairs of nodes to break; Section 6.2 and 7.2 analyse two distinct
failure modes that this module captures:

* **Link failure** with probability ``P_d``: the whole exchange silently
  fails (equivalent to the initiation message being lost) — no state
  changes anywhere, convergence merely slows down.
* **Message omission** with probability ``P_m`` applied to every message:
  if the *request* is lost the exchange is skipped; if the *response* is
  lost the responder has already applied the update while the initiator
  has not, so conservation of the global sum is violated — the damaging
  case studied in Figure 7(b).

Both are drawn for a whole cycle at once: one batched contract,
:meth:`TransportModel.classify_exchanges`, yields an array of integer
outcome codes.  For the asynchronous engine a :class:`DelayModel` adds
message latencies, and :func:`classify_async_exchanges` folds the
exchange timeout of Section 4.2 into the same codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..common.rng import RandomSource
from ..common.validation import require, require_non_negative, require_probability

__all__ = [
    "OUTCOME_COMPLETED",
    "OUTCOME_DROPPED",
    "OUTCOME_RESPONSE_LOST",
    "TransportModel",
    "PERFECT_TRANSPORT",
    "DelayModel",
    "DELAY_DISTRIBUTIONS",
    "apply_reachability",
    "classify_async_exchanges",
]


#: How one push–pull exchange ends, as the codes of the batched outcome
#: arrays of :meth:`TransportModel.classify_exchanges`: both peers update;
#: the exchange never happened (link failure or lost request); or the
#: request arrived (responder updates) but the response was lost
#: (initiator keeps its old state) — the sum-violating case.
OUTCOME_COMPLETED = 0
OUTCOME_DROPPED = 1
OUTCOME_RESPONSE_LOST = 2


@dataclass(frozen=True)
class TransportModel:
    """Probabilistic model of exchange-level communication failures.

    Parameters
    ----------
    link_failure_probability:
        ``P_d`` — probability that the link used by an exchange is down,
        dropping the exchange entirely.
    message_loss_probability:
        ``P_m`` — probability that any individual message (request or
        response) is lost.
    """

    link_failure_probability: float = 0.0
    message_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        require_probability(self.link_failure_probability, "link_failure_probability")
        require_probability(self.message_loss_probability, "message_loss_probability")

    def is_perfect(self) -> bool:
        """Whether this transport never loses anything."""
        return (
            self.link_failure_probability == 0.0
            and self.message_loss_probability == 0.0
        )

    def classify_exchanges(self, rng: RandomSource, count: int) -> np.ndarray:
        """Draw the fates of a whole cycle's exchanges in batched form.

        Returns a ``(count,)`` uint8 array of ``OUTCOME_*`` codes.  The
        per-stage Bernoulli variables are drawn for *every* exchange
        regardless of earlier stages, so the number of generator draws is
        data-independent — the property the shared cycle-plan discipline
        relies on to keep the reference and vectorised engines on
        identical random streams.
        """
        outcomes = np.zeros(count, dtype=np.uint8)
        if count == 0:
            return outcomes
        generator = rng.generator
        if self.link_failure_probability > 0.0:
            outcomes[generator.random(count) < self.link_failure_probability] = (
                OUTCOME_DROPPED
            )
        if self.message_loss_probability > 0.0:
            request_lost = generator.random(count) < self.message_loss_probability
            response_lost = generator.random(count) < self.message_loss_probability
            alive = outcomes == OUTCOME_COMPLETED
            outcomes[alive & request_lost] = OUTCOME_DROPPED
            outcomes[alive & ~request_lost & response_lost] = OUTCOME_RESPONSE_LOST
        return outcomes


#: A transport with no failures at all, shared as a convenient default.
PERFECT_TRANSPORT = TransportModel()


def apply_reachability(
    reachability,
    initiators: np.ndarray,
    peers: np.ndarray,
    outcomes: np.ndarray,
    cycle_index: int,
) -> bool:
    """Overwrite ``outcomes`` with ``DROPPED`` for unreachable pairs.

    Correlated connectivity failures (partition outages — see
    :class:`~repro.simulator.failures.ReachabilityModel`) express
    themselves through the same outcome codes as probabilistic transport
    loss: an exchange whose initiator cannot reach its peer silently
    fails, exactly like a down link.  Every engine funnels its drawn
    exchange slots through this helper *after* drawing the cycle plan and
    *before* applying merges, so the reference and vectorised paths drop
    the identical slots.

    ``outcomes`` is mutated in place; returns whether anything was
    blocked (engines use this to disable perfect-transport shortcuts for
    the cycle).
    """
    if reachability is None or peers.size == 0:
        return False
    blocked = reachability.blocked_pairs(initiators, peers, cycle_index)
    if blocked is None:
        return False
    # ``-1`` marks slots without a usable peer; they never reach a merge,
    # but masking them keeps models free to index peer arrays directly.
    blocked = blocked & (peers >= 0)
    if not blocked.any():
        return False
    outcomes[blocked] = OUTCOME_DROPPED
    return True


#: Latency distributions understood by :class:`DelayModel`.
DELAY_DISTRIBUTIONS = ("uniform", "lognormal")


@dataclass(frozen=True)
class DelayModel:
    """Message latency model for the asynchronous engine.

    The model also carries the timeout the initiating node uses to detect
    a silent peer; exchanges whose response would arrive after the timeout
    are treated as failed, mirroring Section 4.2 of the paper.

    Two latency distributions are supported:

    * ``"uniform"`` (default) — latencies drawn uniformly from
      ``[min_delay, max_delay]``; with ``min_delay == max_delay`` every
      message takes exactly that long and no randomness is drawn.
    * ``"lognormal"`` — a heavy-tailed WAN-like distribution: the
      underlying normal has ``median = (min_delay + max_delay) / 2`` and
      shape ``sigma``; draws are clipped below at ``min_delay`` (a message
      cannot beat the propagation floor) but the upper tail is *not*
      clipped, which is precisely what makes exchange timeouts bite.
    """

    min_delay: float = 0.01
    max_delay: float = 0.1
    timeout: float = 0.5
    distribution: str = "uniform"
    sigma: float = 0.5

    def __post_init__(self) -> None:
        require_non_negative(self.min_delay, "min_delay")
        require_non_negative(self.max_delay, "max_delay")
        require_non_negative(self.timeout, "timeout")
        require(self.max_delay >= self.min_delay, "max_delay must be at least min_delay")
        require(
            self.distribution in DELAY_DISTRIBUTIONS,
            f"distribution must be one of {DELAY_DISTRIBUTIONS}, got {self.distribution!r}",
        )
        if self.distribution == "lognormal":
            require_non_negative(self.sigma, "sigma")
            require(
                self.min_delay + self.max_delay > 0.0,
                "lognormal delays need a positive median",
            )

    @property
    def median_delay(self) -> float:
        """Centre of the latency distribution (exact for lognormal)."""
        return (self.min_delay + self.max_delay) / 2.0

    def sample_delays(self, rng: RandomSource, count: int) -> np.ndarray:
        """Draw ``count`` latencies in one batched generator call.

        A uniform distribution of zero width consumes no randomness.
        """
        if count <= 0:
            return np.empty(0, dtype=np.float64)
        if self.distribution == "lognormal":
            draws = rng.generator.lognormal(
                math.log(self.median_delay), self.sigma, count
            )
            return np.maximum(draws, self.min_delay)
        if self.max_delay == self.min_delay:
            return np.full(count, self.min_delay, dtype=np.float64)
        return rng.generator.uniform(self.min_delay, self.max_delay, count)


def classify_async_exchanges(
    transport: TransportModel,
    delay_model: DelayModel,
    rng: RandomSource,
    count: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched exchange fates for the asynchronous engine.

    Extends :meth:`TransportModel.classify_exchanges` with the timeout
    semantics of Section 4.2: an exchange whose request arrived but whose
    round trip exceeds the initiator's timeout behaves exactly like a lost
    response — the responder has already applied the update by the time
    the reply lands, while the initiator gave up waiting — so such slots
    are reclassified from ``COMPLETED`` to ``RESPONSE_LOST``.

    Returns ``(outcomes, delivered)``: the codes with the timeout folded
    in, and whether each response physically arrived (however late).

    Loss variables are drawn first (one batch per stage, data-independent
    counts, same discipline as ``classify_exchanges``), then one request
    and one response latency per exchange regardless of the loss outcome,
    so the stream consumption depends only on ``count``.
    """
    outcomes = transport.classify_exchanges(rng, count)
    delivered = outcomes == OUTCOME_COMPLETED
    if count == 0:
        return outcomes, delivered
    request_delays = delay_model.sample_delays(rng, count)
    response_delays = delay_model.sample_delays(rng, count)
    timed_out = (request_delays + response_delays) > delay_model.timeout
    outcomes[delivered & timed_out] = OUTCOME_RESPONSE_LOST
    return outcomes, delivered
