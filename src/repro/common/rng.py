"""Deterministic random-number management.

Every stochastic component of the library (topology builders, the
simulation engines, failure injectors, the protocols themselves) receives
its randomness from a :class:`RandomSource`.  A single integer seed is
therefore enough to reproduce an entire experiment bit-for-bit, and
independent components can be given independent streams derived from the
same root seed so that, for example, changing the failure model does not
perturb the topology that gets generated.

The implementation wraps :class:`numpy.random.Generator` (PCG64) and adds

* named child streams (:meth:`RandomSource.child`) derived through
  ``numpy.random.SeedSequence.spawn`` semantics, and
* the few scalar draws the library makes (``uniform``, ``choice_index``,
  ``sample_indices``); batched consumers draw from
  :attr:`RandomSource.generator` directly.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomSource", "derive_seed"]


def derive_seed(root_seed: int, *labels: str | int) -> int:
    """Derive a child seed from ``root_seed`` and a sequence of labels.

    The derivation is stable across processes and Python versions: it
    hashes the textual representation of the root seed and labels with
    SHA-256 and folds the digest into a 63-bit integer.

    Parameters
    ----------
    root_seed:
        The root seed of the experiment.
    labels:
        Arbitrary labels (strings or integers) identifying the component
        requesting a stream, e.g. ``("topology", 3)``.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


class RandomSource:
    """A seeded random stream with support for named child streams.

    Parameters
    ----------
    seed:
        Non-negative integer seed.  Two sources created with the same seed
        produce identical draw sequences.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._generator = np.random.Generator(np.random.PCG64(self._seed))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for vectorised consumers)."""
        return self._generator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(seed={self._seed})"

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def child(self, *labels: str | int) -> "RandomSource":
        """Return an independent child stream identified by ``labels``.

        Children with distinct labels are statistically independent;
        children with the same labels are identical.
        """
        return RandomSource(derive_seed(self._seed, *labels))

    # ------------------------------------------------------------------
    # Scalar draws
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return float(self._generator.uniform(low, high))

    # ------------------------------------------------------------------
    # Collection draws
    # ------------------------------------------------------------------
    def choice_index(self, length: int) -> int:
        """Uniform index into a sequence of the given length."""
        if length <= 0:
            raise ValueError("cannot choose from an empty sequence")
        return int(self._generator.integers(0, length))

    def sample_indices(self, population: int, count: int) -> np.ndarray:
        """Sample ``count`` distinct indices from ``range(population)``."""
        if count > population:
            raise ValueError(
                f"cannot sample {count} distinct items from a population of {population}"
            )
        return self._generator.choice(population, size=count, replace=False)
