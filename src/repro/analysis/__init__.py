"""Theory and empirical convergence measures."""

from .convergence import (
    mean_convergence_factor,
    normalized_mean_variance,
    variance_reduction_curve,
)
from .theory import (
    PUSH_PULL_CONVERGENCE_FACTOR,
    RANDOM_PAIRWISE_CONVERGENCE_FACTOR,
    crash_variance_prediction,
    exchange_count_pmf,
    expected_exchanges_per_cycle,
    expected_variance_after_cycles,
    is_crash_variance_bounded,
    link_failure_convergence_bound,
    peak_distribution_variance,
)

__all__ = [
    "PUSH_PULL_CONVERGENCE_FACTOR",
    "RANDOM_PAIRWISE_CONVERGENCE_FACTOR",
    "crash_variance_prediction",
    "is_crash_variance_bounded",
    "link_failure_convergence_bound",
    "expected_variance_after_cycles",
    "expected_exchanges_per_cycle",
    "exchange_count_pmf",
    "peak_distribution_variance",
    "mean_convergence_factor",
    "variance_reduction_curve",
    "normalized_mean_variance",
]
