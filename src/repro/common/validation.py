"""Small validation helpers used by configuration objects.

These helpers raise :class:`~repro.common.errors.ConfigurationError` with a
message that names the offending parameter, so long simulations fail fast
and with an actionable error instead of deep inside the engine.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigurationError

__all__ = [
    "require",
    "require_positive",
    "require_non_negative",
    "require_probability",
    "require_trim_fraction",
    "require_in_range",
    "require_at_least",
    "require_fraction_of",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Require ``value >= 0``."""
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value!r}")


def require_trim_fraction(value: float, name: str) -> None:
    """Require ``0 <= value < 0.5``, so a symmetric trim always keeps an entry."""
    if not 0.0 <= value < 0.5:
        raise ConfigurationError(f"{name} must be in [0, 0.5), got {value!r}")


def require_in_range(value: float, low: float, high: float, name: str) -> None:
    """Require ``low <= value <= high``."""
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value!r}")


def require_at_least(value: float, minimum: float, name: str) -> None:
    """Require ``value >= minimum``."""
    if value < minimum:
        raise ConfigurationError(f"{name} must be at least {minimum}, got {value!r}")


def require_fraction_of(count: int, total: int, name: str) -> None:
    """Require ``0 <= count <= total`` (e.g. a subset size of a population)."""
    if not 0 <= count <= total:
        raise ConfigurationError(
            f"{name} must be between 0 and {total} (the population size), got {count!r}"
        )


def require_non_empty(sequence: Sequence, name: str) -> None:
    """Require a non-empty sequence."""
    if len(sequence) == 0:
        raise ConfigurationError(f"{name} must not be empty")
