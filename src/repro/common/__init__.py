"""Shared infrastructure: errors, deterministic randomness, validation."""

from .errors import (
    ConfigurationError,
    ExperimentError,
    MembershipError,
    ProtocolError,
    ReproError,
    SimulationError,
    TopologyError,
)
from .rng import RandomSource, derive_seed
from .validation import (
    require,
    require_non_negative,
    require_positive,
    require_probability,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "SimulationError",
    "ProtocolError",
    "MembershipError",
    "ExperimentError",
    "RandomSource",
    "derive_seed",
    "require",
    "require_positive",
    "require_non_negative",
    "require_probability",
]
