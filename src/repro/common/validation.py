"""Small validation helpers used by configuration objects.

These helpers raise :class:`~repro.common.errors.ConfigurationError` with a
message that names the offending parameter, so long simulations fail fast
and with an actionable error instead of deep inside the engine.
"""

from __future__ import annotations

import math
from numbers import Integral

from .errors import ConfigurationError

__all__ = [
    "require",
    "require_positive",
    "require_positive_int",
    "require_non_negative",
    "require_non_negative_int",
    "require_probability",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: float, name: str) -> None:
    """Require a finite ``value > 0`` (NaN and ``inf`` are refused)."""
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")


def require_positive_int(value: int, name: str) -> None:
    """Require an integer ``value >= 1`` (a ``bool`` or a float is refused)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Require ``value >= 0`` (``inf`` is allowed, NaN is refused)."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def require_non_negative_int(value: int, name: str) -> None:
    """Require an integer ``value >= 0`` (a ``bool`` or a float is refused)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value!r}")

