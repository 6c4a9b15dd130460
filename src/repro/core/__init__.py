"""The paper's core contribution: robust proactive epidemic aggregation."""

from .count import (
    AdaptiveCount,
    CountArrayFunction,
    CountEpochRecord,
    LeaderElection,
    count_estimate_from_map,
    count_estimates_from_matrix,
    network_size_from_estimate,
    peak_initial_values,
)
from .epoch import EpochConfig, cycles_for_accuracy
from .functions import (
    AggregationFunction,
    AverageFunction,
    GeometricMeanFunction,
    MaxFunction,
    MinFunction,
    PushSumFunction,
    VectorFunction,
)
from .instances import (
    MultiInstanceCount,
    median_size_estimates,
    multi_instance_peak_values,
    trimmed_size_estimates,
)
from .protocol import AGGREGATES, AggregationResult, aggregate

__all__ = [
    "AggregationFunction",
    "AverageFunction",
    "MinFunction",
    "MaxFunction",
    "GeometricMeanFunction",
    "PushSumFunction",
    "VectorFunction",
    "CountArrayFunction",
    "LeaderElection",
    "AdaptiveCount",
    "CountEpochRecord",
    "peak_initial_values",
    "network_size_from_estimate",
    "count_estimate_from_map",
    "count_estimates_from_matrix",
    "EpochConfig",
    "cycles_for_accuracy",
    "MultiInstanceCount",
    "multi_instance_peak_values",
    "trimmed_size_estimates",
    "median_size_estimates",
    "AggregationResult",
    "aggregate",
    "AGGREGATES",
]
