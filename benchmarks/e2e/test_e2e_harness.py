"""Self-test of the end-to-end benchmark harness (tiny sizes, a few seconds).

Covers what a later PR relies on without running the benchmark: every
workload runs and passes its check, every check can fail, the tracer puts
back exactly what it replaced, self times add up, a vanished trace target
reads null, and ``BENCHMARK.json`` lists exactly what the harness reports.
"""

import json
import os
import subprocess
import sys
import warnings

import pytest

import compare
import run
import tracing
import workloads

CONTRACT = run.load_contract()
WORKLOAD_CLASSES = list(workloads.WORKLOADS.values())


def tiny(workload_class, seed=2004):
    return workload_class(seed, **workload_class.TINY)


# ----------------------------------------------------------------------
# Workloads and checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload_class", WORKLOAD_CLASSES, ids=lambda cls: cls.name)
def test_workload_runs_and_passes_its_check_at_tiny_size(workload_class):
    record = run.measure(workload_class, 2004, False, overrides=workload_class.TINY)
    assert record["failures"] == []
    assert record["failed"] == 0
    assert record["attempted"] == {**workload_class.DEFAULTS, **workload_class.TINY}["units"]
    assert set(record["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]} | {"failed_share"}
    assert all(value > 0 for name, value in record["metrics"].items() if name != "failed_share")
    assert len(record["result_digest"]) == 64


def test_same_seed_same_digest_and_other_seed_other_digest():
    cls = workloads.AvgStatic
    digests = [
        run.measure(cls, seed, False, overrides=cls.TINY)["result_digest"]
        for seed in (5, 5, 6)
    ]
    assert digests[0] == digests[1] != digests[2]


def good_average_stats(factor, cycles):
    return {
        "cycles": [0, cycles],
        "variances": [800.0, 800.0 * factor**cycles],
        "means": [50.0, 50.0],
        "true_mean": 50.0,
    }


@pytest.mark.parametrize("workload_class", [workloads.AvgStatic, workloads.AvgNewscast])
def test_average_check_rejects_non_converging_trace_and_mean_drift(workload_class):
    workload = workload_class(1)
    cycles = workload.params["factor_cycles"]
    centre = workload.params["factor_band"][0]
    assert workload.check(good_average_stats(centre, cycles)) == []
    flat = good_average_stats(1.0, cycles)  # variance never shrinks
    assert any("convergence factor" in problem for problem in workload.check(flat))
    drifted = good_average_stats(centre, cycles)
    drifted["means"][-1] = 52.0
    assert any("mean error" in problem for problem in workload.check(drifted))
    unrecorded = dict(good_average_stats(centre, cycles), cycles=[0, cycles + 1])
    assert any("no record" in problem for problem in workload.check(unrecorded))


def test_count_check_rejects_off_by_two_estimate_and_dry_epoch():
    workload = workloads.CountEpochs(1)
    size = workload.params["size"]
    good = {"epochs": [[7, 20, size * 1.03, False, size], [8, 19, size * 0.97, False, size]]}
    assert workload.check(good) == []
    doubled = {"epochs": [[7, 20, size * 2.0, False, size], good["epochs"][1]]}
    assert any("estimate" in problem for problem in workload.check(doubled))
    dry = {"epochs": [[7, 0, size * 1.0, True, size], good["epochs"][1]]}
    assert any("dry" in problem for problem in workload.check(dry))


def test_replicated_check_rejects_wrong_shape_factor_and_digest():
    workload = workloads.RepeatsReplicated(1)
    params = workload.params
    survivors = params["size"] - params["cycles"] * params["crashes_per_cycle"]
    good = {
        "records": [params["cycles"] + 1] * params["repeats"],
        "survivors": [survivors] * params["repeats"],
        "factors": [params["factor_band"][0]] * params["repeats"],
        "digest": "a",
        "reference_digest": "a",
    }
    assert workload.check(good) == []
    assert workload.check(dict(good, factors=[1.0] * params["repeats"]))
    assert workload.check(dict(good, survivors=[survivors + 1] * params["repeats"]))
    assert workload.check(dict(good, records=[params["cycles"]] * params["repeats"]))
    assert workload.check(dict(good, digest="b"))


def test_async_check_rejects_off_by_two_estimate_and_starved_exchanges():
    workload = workloads.AsyncCount(1)
    size = workload.params["size"]
    share = workload.params["completed_band"][0]
    good = {"epochs": [[3, 20, size * 1.1, size]], "epochs_run": 5, "epochs_checked": 4,
            "ticks": 1000, "completed_share": share}
    assert workload.check(good) == []
    assert workload.check(dict(good, epochs=[[3, 20, size * 2.0, size]]))
    assert workload.check(dict(good, completed_share=0.0))
    # No epoch ever completes: nothing to check must not read as a pass.
    never = dict(good, epochs=[], epochs_checked=0)
    assert any("epochs were checked" in problem for problem in workload.check(never))


def test_figures_check_rejects_missing_rows_nan_and_bad_factor():
    workload = workloads.FiguresBench(1)
    rows = {key: (9 if value is None else value)
            for key, value in workload.params["expected_rows"].items()}
    good = {"rows": rows, "nan_cells": [], "factor_3a_random": workload.params["factor_band"][0]}
    assert workload.check(good) == []
    assert workload.check(dict(good, rows=dict(rows, **{"3b": 407})))
    assert workload.check(dict(good, rows=dict(rows, cost=0)))
    assert workload.check(dict(good, nan_cells=["5.measured_normalized_variance"]))
    assert workload.check(dict(good, factor_3a_random=0.9))


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_restores_every_patched_attribute_exactly():
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.missing == []
    patched = tracer.patched_attributes()
    assert len(patched) > len(tracing.TARGETS)  # aliases and method families
    before = [vars(owner)[attribute] for owner, attribute in patched]
    tracer.enable()
    try:
        during = [vars(owner)[attribute] for owner, attribute in patched]
        assert all(now is not was for now, was in zip(during, before))
    finally:
        tracer.disable()
    after = [vars(owner)[attribute] for owner, attribute in patched]
    assert all(now is was for now, was in zip(after, before))


def traced_unit(workload, tracer):
    workload.setup()
    workload.warm_up()
    tracer.install()
    workload.span = tracer.span
    tracer.unit = 0
    tracer.enable()
    try:
        with tracer.span(tracing.UNIT_SPAN):
            stats = workload.unit(workload.inputs(0))
    finally:
        tracer.disable()
    return stats


@pytest.mark.parametrize("workload_class", [workloads.CountEpochs, workloads.RepeatsReplicated],
                         ids=lambda cls: cls.name)
def test_self_times_of_a_unit_sum_to_its_span(workload_class):
    tracer = tracing.Tracer()
    traced_unit(tiny(workload_class), tracer)
    breakdown = tracer.unit_breakdown(0)
    unit_span = next(span for span in tracer.spans if span[tracing.NAME] == tracing.UNIT_SPAN)
    duration = unit_span[tracing.END] - unit_span[tracing.START]
    assert len(breakdown) > 5
    assert set(tracer.layer_metrics([])) == set(tracing.SECONDS_METRICS) | set(tracing.COUNT_METRICS)
    assert sum(entry["self"] for entry in breakdown.values()) == pytest.approx(duration, rel=0.01)
    assert breakdown[tracing.UNIT_SPAN]["total"] == pytest.approx(duration)


def test_missing_trace_target_reads_null_not_an_exception():
    targets = tracing.TARGETS + [
        ("sampling.draw_plan", "repro.simulator.sampling:renamed_away", None),
        ("count.elect", "repro.core.no_such_module:LeaderElection.elect_batch", None),
    ]
    tracer = tracing.Tracer(targets)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traced_unit(tiny(workloads.AvgStatic), tracer)
    assert sorted(tracer.missing) == sorted(target for _, target, _ in targets[-2:])
    assert len(caught) == 2 and "renamed_away" in str(caught[0].message)
    metrics = tracer.layer_metrics([])
    assert metrics["sampling.draw_plan_s"] is None
    assert metrics["count.elect_s"] is None
    assert metrics["count.leaders_per_epoch"] is None
    assert metrics["sampling.conflict_rounds_s"] > 0


def test_traced_pass_reports_exactly_the_per_layer_metrics_of_the_contract():
    cls = workloads.FiguresBench
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no trace target may be missing at this commit
        record = run.measure(cls, 2004, True, overrides=cls.TINY)
    listed = [metric["name"] for metric in CONTRACT["per_layer"]]
    assert sorted(record["metrics"]) == sorted(listed)
    assert all(isinstance(record["metrics"][name], float) for name in listed)
    assert record["metrics"]["cycle_sim.run_cycle_s"] > 0
    assert record["metrics"]["figures.3a_s"] > 0
    assert record["metrics"]["figures.3b_s"] == 0  # not in the tiny figure set
    assert record["metrics"]["runner.replicated_calls"] >= 1
    assert record["samples"]["traced"].count(True) >= 1 <= record["samples"]["traced"].count(False)
    line = json.loads(run.driver_line(record, CONTRACT))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert list(line["metrics"]) == listed
    rows = record["spans"]["rows"]
    assert {row[0] for row in rows} >= {tracing.UNIT_SPAN, "figures.3a", "cycle_sim.run_cycle"}
    assert all(len(row) == len(record["spans"]["columns"]) for row in rows)
    assert all(row[3] < index for index, row in enumerate(rows))  # a parent precedes its child
    json.dumps(rows)


# ----------------------------------------------------------------------
# Contract, command line, compare
# ----------------------------------------------------------------------
def test_contract_matches_the_harness():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOAD_CLASSES
    ]
    assert {metric["name"] for metric in CONTRACT["end_to_end"]} == {
        "setup_s", "unit_s", "unit_cpu_s", "peak_rss_mb"
    }
    produced = {f"figures.{figure_id}_s" for figure_id in workloads.ALL_FIGURES}
    produced |= set(tracing.SECONDS_METRICS) | set(tracing.COUNT_METRICS)
    produced |= {"trace.overhead_ratio"}
    for cls in WORKLOAD_CLASSES:
        produced |= set(cls.LAYER_STATS)
        assert set(cls.TINY) <= set(cls.DEFAULTS)
    assert {metric["name"] for metric in CONTRACT["per_layer"]} == produced


def test_command_line_prints_the_result_line_and_never_imports_the_tracer():
    script = (
        "import runpy, sys\n"
        f"sys.argv = [{run.__file__!r}, '--workload', 'async-count-n10k', '--tiny', '--seed', '3']\n"
        "try:\n"
        f"    runpy.run_path({run.__file__!r}, run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code\n"
        "assert 'tracing' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [metric["name"] for metric in CONTRACT["end_to_end"]]
    for metric in CONTRACT["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0


def test_compare_verdicts():
    metric = {"name": "unit_s", "unit": "s", "better": "lower", "bound": 0.10}
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(metric, steady, [value * 1.05 for value in steady])[0] == "ok"
    assert compare.verdict(metric, steady, [value * 1.20 for value in steady])[0] == "worse"
    noisy = [0.8, 1.2, 0.9, 1.1, 1.0, 0.7, 1.3, 1.0, 0.85, 1.15]
    assert compare.verdict(metric, noisy, noisy)[0] == "unresolved"
    # Every run of B better than every run of A: resolved despite the spread.
    assert compare.verdict(metric, noisy, [value * 0.5 for value in noisy])[0] == "ok"
    floor = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15}
    assert compare.verdict(floor, [0.010], [0.020])[0] == "ok"  # +100% but below 0.05 s
    clean = [0.0] * 10
    assert compare.verdict(compare.FAILED_SHARE, clean, clean)[0] == "ok"
    assert compare.verdict(compare.FAILED_SHARE, [0.0, 0.0], [0.0, 0.5])[0] == "worse"
    # A minority of failing runs leaves both medians at 0; still worse.
    assert compare.verdict(compare.FAILED_SHARE, clean, [0.0] * 6 + [0.2] * 4)[0] == "worse"
    assert compare.verdict(compare.FAILED_SHARE, [0.0] * 9 + [0.2], [0.0] * 9 + [0.1])[0] == "ok"
