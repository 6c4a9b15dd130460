"""Repeats across processes: ``runner.fan_out`` and its two callers.

Repetitions draw only from their own ``child("run", i)`` streams, so the
process a stacked group, a ``make_run`` repetition or a figure point runs
in cannot change a bit of its result.  The parity tests reach the pool at
any size by faking the work floor to 0 and the usable CPUs to 2 (the two
module seams ``runner._FAN_OUT_FLOOR`` and ``runner._usable_cpus``) and
compare with the same call at one CPU.  The safety tests check that
errors come back with their type, that no worker outlives its call and
that pools never nest.
"""

import concurrent.futures
import multiprocessing
import os
from unittest import mock

import pytest
from test_experiments_figures import GOLDEN_ROWS, rows_digest
from test_stacked_memory import GROUPED_PLANS, group_budget, run_state

from repro.experiments import runner
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import (
    RunPlan,
    fan_out,
    repeat_simulations,
    repeat_traces,
    run_epoched_count,
    uniform_initial_values,
)
from repro.newscast import NewscastOverlay
from repro.topology import TopologySpec

GOLDEN_SCALE = ExperimentScale(name="golden", network_size=60, repeats=1, sweep_points=2, seed=2004)


def cpus(count, floor=0):
    """Fake ``count`` usable CPUs and a work floor of ``floor``; count the pools made."""
    pools = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    patches = (
        mock.patch.object(runner, "_usable_cpus", lambda: count),
        mock.patch.object(runner, "_FAN_OUT_FLOOR", floor),
        mock.patch.object(concurrent.futures, "ProcessPoolExecutor", Counting),
    )
    return pools, patches


def run_at(count, call, floor=0):
    """``call()`` at ``count`` faked CPUs; its result and the pools it made."""
    pools, (usable, floored, counting) = cpus(count, floor)
    with usable, floored, counting:
        result = call()
    assert multiprocessing.active_children() == []
    return result, pools


@pytest.fixture(autouse=True)
def no_worker_outlives_its_call():
    yield
    assert multiprocessing.active_children() == []


class TestParity:
    @pytest.mark.parametrize("figure_id", sorted(GOLDEN_ROWS))
    def test_golden_rows_at_one_and_two_cpus(self, figure_id):
        figure = ALL_FIGURES[figure_id]
        alone, serial_pools = run_at(1, lambda: figure(GOLDEN_SCALE).rows)
        fanned, pools = run_at(2, lambda: figure(GOLDEN_SCALE).rows)
        assert rows_digest(alone) == rows_digest(fanned) == GOLDEN_ROWS[figure_id]
        assert serial_pools == []
        # A sweep of two points fans out; a body figure of one repeat does not.
        swept = figure.body is None and figure.points is not None
        assert [args[0] for args in pools] == ([2] if swept else [])

    @pytest.mark.parametrize("name", sorted(GROUPED_PLANS))
    def test_grouped_plans_at_one_and_two_cpus(self, name):
        plan = RunPlan(
            size=80, cycles=6, values=uniform_initial_values, collect=run_state,
            **GROUPED_PLANS[name],
        )
        with group_budget(1):
            alone, _ = run_at(1, lambda: repeat_traces(4, 2004, plan=plan))
            fanned, pools = run_at(2, lambda: repeat_traces(4, 2004, plan=plan))
        assert fanned == alone
        assert len(pools) == 1

    def test_adaptive_repeat_list_at_one_and_two_cpus(self):
        def make_run(index, rng):
            records = run_epoched_count(TopologySpec("newscast", degree=8), 60, 3, rng).records
            return repr(records)

        alone, _ = run_at(1, lambda: repeat_simulations(3, 2004, make_run))
        fanned, pools = run_at(2, lambda: repeat_simulations(3, 2004, make_run))
        assert fanned == alone and len(set(alone)) == 3
        # Repetition 0 runs here, timed; the other two fan out.
        assert [args[0] for args in pools] == [2]


class TestSafety:
    def test_a_point_worker_raises_with_its_type(self, monkeypatch):
        def oracle_reached(*args, **kwargs):
            raise AssertionError("figure 3b reached an oracle path")

        monkeypatch.setattr(NewscastOverlay, "bootstrap", oracle_reached)
        points = [
            TopologySpec("random", degree=4),
            TopologySpec("newscast", degree=8, params={"vectorized": False}),
        ]
        pools, (usable, floored, counting) = cpus(2)
        with usable, floored, counting:
            with pytest.raises(AssertionError, match="reached an oracle path"):
                ALL_FIGURES["3b"](GOLDEN_SCALE, points=points)
        assert len(pools) == 1

    def test_a_call_inside_a_worker_runs_in_that_worker(self):
        def task(index):
            inner = fan_out(2, lambda _: os.getpid(), 1 << 62)
            return os.getpid(), inner

        results, pools = run_at(2, lambda: fan_out(2, task, 1 << 62))
        assert len(pools) == 1
        for worker, inner in results:
            assert worker != os.getpid() and inner == [worker, worker]

    @pytest.mark.parametrize(
        "count, usable, floor, work",
        [(1, 2, 0, 10), (3, 1, 0, 10), (3, 2, 11, 10)],
        ids=["one-task", "one-cpu", "below-the-floor"],
    )
    def test_in_process_cases_run_here_in_index_order(self, count, usable, floor, work):
        calls = []

        def task(index):
            calls.append((index, os.getpid()))
            return index

        results, pools = run_at(usable, lambda: fan_out(count, task, work), floor)
        assert results == list(range(count)) and pools == []
        assert calls == [(index, os.getpid()) for index in range(count)]

    def test_no_fork_start_method_runs_here(self):
        with mock.patch.object(multiprocessing, "get_all_start_methods", lambda: ["spawn"]):
            results, pools = run_at(2, lambda: fan_out(3, lambda index: os.getpid(), 10))
        assert results == [os.getpid()] * 3 and pools == []

    def test_the_floor_sits_between_bench_and_default_points(self):
        # Work is nodes x replicas x cycles: a BENCH point at 50 cycles stays
        # here, a DEFAULT point and a repeats-replicated-n10k group fan out.
        assert 400 * 3 * 50 < runner._FAN_OUT_FLOOR <= 2_000 * 10 * 30
        assert runner._FAN_OUT_FLOOR <= 10_000 * 5 * 20
