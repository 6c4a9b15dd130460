"""Shared fixtures for the benchmark harness.

Every benchmark regenerates the data behind one figure (or one ablation)
of the paper and reports both the wall-clock cost of doing so and the
reproduced series.  The experiment scale defaults to a small "bench"
preset so the whole suite completes in minutes; set ``REPRO_SCALE`` to
``default`` or ``paper`` for larger runs.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.experiments.config import BENCH, ExperimentScale, scale_from_environment

#: Small-but-meaningful default used when REPRO_SCALE is not set; the
#: same preset is registered as ``REPRO_SCALE=bench`` (what CI exports).
BENCH_SCALE: ExperimentScale = BENCH


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale shared by every benchmark."""
    return scale_from_environment(default=BENCH_SCALE)


@pytest.fixture
def figure_runner(benchmark, scale):
    """Run one figure reproduction under pytest-benchmark timing.

    Figures are far too heavy for statistical benchmarking
    rounds; a single timed round per figure keeps the harness usable while
    still recording the cost and the reproduced rows (attached to
    ``benchmark.extra_info`` and printed for inspection with ``-s``).
    """

    def run(figure, scale_override=None, **kwargs):
        used_scale = scale_override or scale
        result = benchmark.pedantic(
            figure,
            args=(used_scale,),
            kwargs=kwargs,
            rounds=1,
            iterations=1,
            warmup_rounds=0,
        )
        benchmark.extra_info["figure"] = result.figure_id
        benchmark.extra_info["parameters"] = result.parameters
        benchmark.extra_info["rows"] = result.rows
        print()
        print(result.render())
        return result

    return run
