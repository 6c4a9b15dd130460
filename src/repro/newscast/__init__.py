"""NEWSCAST: the epidemic membership protocol used as the dynamic overlay.

Two interchangeable implementations are provided: the array-native
:class:`VectorizedNewscastOverlay` (all caches in one packed matrix,
batched maintenance and peer draws), which a ``"newscast"``
:class:`~repro.topology.TopologySpec` builds by default, and the
dict-based :class:`NewscastOverlay` (one ``NewscastCache`` per node),
kept as its parity oracle.  Both answer the same batched peer draw, so
both run on every engine.
"""

from .cache import CacheEntry, NewscastCache
from .protocol import NewscastOverlay
from .vectorized_cache import (
    MAX_NODE_ID,
    VectorizedNewscastOverlay,
    merge_packed_pairs,
    pack_entries,
    unpack_entries,
)

__all__ = [
    "CacheEntry",
    "NewscastCache",
    "NewscastOverlay",
    "VectorizedNewscastOverlay",
    "MAX_NODE_ID",
    "merge_packed_pairs",
    "pack_entries",
    "unpack_entries",
]
