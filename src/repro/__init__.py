"""repro — Robust Aggregation Protocols for Large-Scale Overlay Networks.

A faithful, pure-Python reproduction of Montresor, Jelasity & Babaoglu,
*Robust Aggregation Protocols for Large-Scale Overlay Networks* (DSN 2004):
push–pull anti-entropy aggregation (AVERAGE, COUNT, SUM, PRODUCT, MIN, MAX,
VARIANCE), epochs with epidemic synchronisation, the NEWSCAST membership
protocol, static overlay generators, cycle simulators and an asynchronous
engine, failure models, the paper's theoretical predictions, and an
experiment harness that regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import aggregate
    result = aggregate([10.0, 20.0, 30.0, 40.0] * 100, aggregate="average", seed=42)
    print(result.mean_estimate, result.relative_error)
"""

from .common import RandomSource
from .core import AverageFunction, EpochConfig, aggregate
from .simulator import make_simulator
from .topology import TopologySpec, build_overlay

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "aggregate",
    "RandomSource",
    "AverageFunction",
    "EpochConfig",
    "make_simulator",
    "TopologySpec",
    "build_overlay",
]
