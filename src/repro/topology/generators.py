"""Factory for building overlays by name.

Experiments sweep over topology families (Figure 3 of the paper); the
factory maps a short, declarative :class:`TopologySpec` onto the concrete
generator so experiment configuration stays data-only.  A spec's kind,
degree and ``beta`` are the whole configuration; the one extra key is
NEWSCAST's ``vectorized``, which names the dict-based parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..common.validation import require_positive_int
from .base import OverlayProvider
from .complete import complete_topology
from .random_regular import random_k_out_topology
from .ring_lattice import ring_lattice_topology
from .scale_free import barabasi_albert_topology
from .watts_strogatz import watts_strogatz_topology

__all__ = ["TopologySpec", "build_overlay", "TOPOLOGY_KINDS"]

#: Names accepted by :func:`build_overlay` (NEWSCAST is built separately by
#: :mod:`repro.newscast` because it is a protocol, not a static graph).
TOPOLOGY_KINDS = (
    "random",
    "complete",
    "ring-lattice",
    "watts-strogatz",
    "scale-free",
    "newscast",
)

#: ``params`` keys each kind accepts; kinds not listed accept none.
_PARAM_KEYS = {"newscast": ("vectorized",)}


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of an overlay topology.

    Attributes
    ----------
    kind:
        One of :data:`TOPOLOGY_KINDS`.
    degree:
        Neighbourhood size (meaning depends on the kind: sampled peers for
        ``random``, lattice degree for ``ring-lattice``/``watts-strogatz``,
        attachment count for ``scale-free``, cache size for ``newscast``).
    beta:
        Watts–Strogatz rewiring probability (ignored by other kinds).
    params:
        Only ``newscast`` takes one: ``{"vectorized": False}`` selects the
        dict-based parity oracle instead of the array-native overlay.  Any
        other key is a :class:`ConfigurationError`.
    """

    kind: str
    degree: int = 20
    beta: float = 0.0
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = self.kind.lower()
        if kind not in TOPOLOGY_KINDS:
            return  # build_overlay reports the unknown kind
        require_positive_int(self.degree, "degree")
        accepted = _PARAM_KEYS.get(kind, ())
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ConfigurationError(
                f"unknown params {unknown} for topology kind {self.kind!r}; "
                f"accepted keys: {list(accepted)}"
            )
        if not isinstance(self.params.get("vectorized", True), bool):
            raise ConfigurationError(
                f"params['vectorized'] must be a bool, got {self.params['vectorized']!r}"
            )

    def builds_array_newscast(self) -> bool:
        """Whether this spec builds the array-native NEWSCAST overlay.

        The one reading of the ``vectorized`` key, shared by
        :func:`build_overlay` and
        :class:`~repro.experiments.runner.RunPlan`: array-native unless
        the dict-based oracle is requested with ``{"vectorized": False}``.
        """
        return self.kind.lower() == "newscast" and self.params.get("vectorized", True)

    def label(self) -> str:
        """Short human-readable label used in reports and figures."""
        if self.kind == "watts-strogatz":
            return f"W-S (beta={self.beta:.2f})"
        if self.kind == "newscast":
            return f"newscast (c={self.degree})"
        return self.kind


def build_overlay(spec: TopologySpec, size: int, rng: RandomSource) -> OverlayProvider:
    """Build the overlay described by ``spec`` over ``size`` nodes.

    Parameters
    ----------
    spec:
        The declarative topology description.
    size:
        Number of nodes (identifiers ``0 .. size-1``).
    rng:
        Randomness source for the stochastic generators.
    """
    require_positive_int(size, "size")
    kind = spec.kind.lower()
    if kind == "random":
        return random_k_out_topology(size, spec.degree, rng)
    if kind == "complete":
        return complete_topology(size)
    if kind == "ring-lattice":
        return ring_lattice_topology(size, spec.degree)
    if kind == "watts-strogatz":
        return watts_strogatz_topology(size, spec.degree, spec.beta, rng)
    if kind == "scale-free":
        return barabasi_albert_topology(size, spec.degree, rng)
    if kind == "newscast":
        # Imported lazily to avoid a package cycle: newscast depends on
        # topology.base for the OverlayProvider interface.
        from ..newscast import NewscastOverlay, VectorizedNewscastOverlay

        overlay_class = (
            VectorizedNewscastOverlay if spec.builds_array_newscast() else NewscastOverlay
        )
        return overlay_class.bootstrap(size, cache_size=spec.degree, rng=rng)
    raise ConfigurationError(
        f"unknown topology kind {spec.kind!r}; expected one of {TOPOLOGY_KINDS}"
    )
