"""Theoretical results from the paper, as executable formulas.

These closed-form predictions are compared against simulation output by
the experiment harness (Figures 5 and 7a) and by the test suite:

* the per-cycle convergence factor ρ ≈ 1/(2√e) of the push–pull protocol
  on sufficiently random overlays (Section 3), and the ρ = 1/e factor of
  the fully random pairwise-exchange model (Section 6.2);
* Theorem 1 — the variance of the estimated mean after ``i`` cycles when a
  proportion ``P_f`` of the nodes crashes before every cycle;
* the upper bound ρ_d = e^(P_d − 1) on the convergence factor under link
  failures (equation (5));
* the cost model of Section 4.5 — the number of exchanges a node takes
  part in per cycle is 1 + Poisson(1).
"""

from __future__ import annotations

import math

from ..common.errors import ConfigurationError
from ..common.validation import require_positive, require_probability

__all__ = [
    "PUSH_PULL_CONVERGENCE_FACTOR",
    "RANDOM_PAIRWISE_CONVERGENCE_FACTOR",
    "link_failure_convergence_bound",
    "crash_variance_prediction",
    "is_crash_variance_bounded",
    "expected_exchanges_per_cycle",
    "exchange_count_pmf",
    "expected_variance_after_cycles",
    "peak_distribution_variance",
]

#: ρ for the push–pull protocol of Figure 1 on a sufficiently random
#: overlay: every node participates in at least the exchange it initiates.
PUSH_PULL_CONVERGENCE_FACTOR = 1.0 / (2.0 * math.sqrt(math.e))

#: ρ for the fully random pairwise-exchange model of [Jelasity & Montresor,
#: ICDCS'04], where a node may not participate in a cycle at all; this is
#: the model that bounds behaviour under link failures.
RANDOM_PAIRWISE_CONVERGENCE_FACTOR = 1.0 / math.e


def link_failure_convergence_bound(link_failure_probability: float) -> float:
    """Upper bound ρ_d = e^(P_d − 1) on the convergence factor (eq. 5).

    With link failure probability ``P_d`` the system behaves like a
    failure-free system slowed down by a factor ``1/(1 − P_d)`` whose
    convergence factor is 1/e, giving ``(1/e)^(1 − P_d)``.
    """
    require_probability(link_failure_probability, "link_failure_probability")
    return math.exp(link_failure_probability - 1.0)


def expected_variance_after_cycles(
    initial_variance: float, cycles: int, convergence_factor: float = PUSH_PULL_CONVERGENCE_FACTOR
) -> float:
    """E(σ²_γ) = ρ^γ · E(σ²_0) — the convergence model of Section 4.5."""
    if cycles < 0:
        raise ConfigurationError("cycles must be non-negative")
    require_probability(convergence_factor, "convergence_factor")
    return initial_variance * convergence_factor ** cycles


def crash_variance_prediction(
    crash_probability: float,
    network_size: int,
    cycles: int,
    initial_variance: float = 1.0,
    convergence_factor: float = PUSH_PULL_CONVERGENCE_FACTOR,
) -> float:
    """Theorem 1: Var(µ_i) caused by crashing a proportion P_f per cycle.

    .. math::

        \\mathrm{Var}(\\mu_i) = \\frac{P_f}{N (1 - P_f)} E(\\sigma_0^2)
            \\cdot \\frac{1 - \\left(\\frac{\\rho}{1-P_f}\\right)^i}
                        {1 - \\frac{\\rho}{1-P_f}}

    Parameters
    ----------
    crash_probability:
        ``P_f`` — the fraction of live nodes crashing before every cycle.
    network_size:
        ``N`` — the initial network size.
    cycles:
        ``i`` — the number of cycles after which the variance is evaluated.
    initial_variance:
        ``E(σ²_0)`` — the expected variance of the initial local values.
        The default of 1.0 yields the *normalised* prediction
        ``Var(µ_i)/E(σ²_0)`` plotted in Figure 5.
    convergence_factor:
        ``ρ`` — the per-cycle variance reduction of the overlay in use.
    """
    require_probability(crash_probability, "crash_probability")
    require_positive(network_size, "network_size")
    if cycles < 0:
        raise ConfigurationError("cycles must be non-negative")
    if crash_probability == 0.0 or cycles == 0:
        return 0.0
    if crash_probability >= 1.0:
        raise ConfigurationError("crash_probability must be below 1")
    ratio = convergence_factor / (1.0 - crash_probability)
    prefactor = (
        crash_probability
        / (network_size * (1.0 - crash_probability))
        * initial_variance
    )
    if math.isclose(ratio, 1.0):
        geometric_sum = float(cycles)
    else:
        geometric_sum = (1.0 - ratio ** cycles) / (1.0 - ratio)
    return prefactor * geometric_sum


def is_crash_variance_bounded(
    crash_probability: float, convergence_factor: float = PUSH_PULL_CONVERGENCE_FACTOR
) -> bool:
    """Whether Var(µ_i) stays bounded as i → ∞ (requires ρ ≤ 1 − P_f)."""
    require_probability(crash_probability, "crash_probability")
    return convergence_factor <= 1.0 - crash_probability


def expected_exchanges_per_cycle() -> float:
    """Mean number of exchanges per node per cycle: 1 initiated + Poisson(1)."""
    return 2.0


def exchange_count_pmf(count: int) -> float:
    """P(a node takes part in exactly ``count`` exchanges in a cycle).

    The count is 1 (the self-initiated exchange) plus a Poisson(1) number
    of exchanges initiated by other nodes, so ``P(count = 1+k) = e^{-1}/k!``.
    """
    if count < 1:
        return 0.0
    k = count - 1
    return math.exp(-1.0) / math.factorial(k)


def peak_distribution_variance(network_size: int, peak_value: float = 1.0) -> float:
    """Empirical variance (N−1 denominator) of the peak initial distribution.

    One node holds ``peak_value``; the other ``N − 1`` nodes hold 0.  This
    is σ²_0 for the COUNT protocol and for Figure 2's demanding scenario.
    """
    require_positive(network_size, "network_size")
    if network_size == 1:
        return 0.0
    n = float(network_size)
    mean = peak_value / n
    total = (peak_value - mean) ** 2 + (n - 1.0) * mean ** 2
    return total / (n - 1.0)
