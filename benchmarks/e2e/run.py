#!/usr/bin/env python3
"""End-to-end benchmark of the repro library: six workloads, one command.

    python benchmarks/e2e/run.py                       # every workload, fresh subprocess each
    python benchmarks/e2e/run.py --workload NAME       # one workload, in this process
    python benchmarks/e2e/run.py --trace 1 ...         # the traced pass: per-layer metrics

Closed loop, one client: units run back to back in a single process pinned
to one thread.  The untraced pass (``--trace 0``, the default) reports the
end-to-end metrics of ``BENCHMARK.json`` and never imports the tracer; the
traced pass alternates untraced and traced units, reports the per-layer
metrics and its own overhead.  Every unit's output is checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out`` writes the full record
(manifest, parameters, samples, digests).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 2004


@functools.lru_cache(maxsize=None)
def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds reported here (read once)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); degenerate below two samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def _git(*arguments: str) -> Optional[str]:
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ("git",) + arguments, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(arguments: argparse.Namespace) -> Dict[str, Any]:
    """Everything needed to trace a number back to the run that produced it."""
    import numpy

    status = _git("status", "--porcelain")
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": arguments.seed,
        "trace": arguments.trace,
        "tiny": arguments.tiny,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


# ----------------------------------------------------------------------
# Measuring one workload (in this process)
# ----------------------------------------------------------------------
def measure(workload_class, seed: int, trace: bool, overrides=None) -> Dict[str, Any]:
    """Set up, warm up, run and check one workload; return the full record.

    A run is exactly the workload's ``units`` units, whatever the clock says,
    so a seed always yields the same ``result_digest``.
    """
    overrides = dict(overrides or {})
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()

    # Set-up, repeated: build + engine construction + the warm-up unit.
    setup_samples: List[float] = []
    workload = None
    repeats = {**workload_class.DEFAULTS, **overrides}["setup_repeats"]
    for _ in range(repeats):
        workload = None
        gc.collect()
        workload = workload_class(seed, **overrides)
        started = time.perf_counter()
        workload.setup()
        workload.warm_up()
        setup_samples.append(time.perf_counter() - started)

    if tracer is not None:
        tracer.install()
        workload.span = tracer.span

    units = workload.params["units"]
    if trace:
        # Untraced and traced units alternate, so both see the same drift
        # of any persistent state; at least one of each.
        units = max(2, units)
    wall: List[float] = []
    cpu: List[float] = []
    traced_flags: List[bool] = []
    unit_stats: List[Optional[Dict[str, Any]]] = []
    failures: List[str] = []
    failed = 0
    for index in range(units):
        inputs = workload.inputs(index)
        traced = trace and index % 2 == 1
        gc.collect()
        stats = None
        problems: List[str] = []
        if traced:
            tracer.unit = index
            tracer.enable()
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            if traced:
                with tracer.span(tracing.UNIT_SPAN):
                    stats = workload.unit(inputs)
            else:
                stats = workload.unit(inputs)
        except Exception as error:  # a failed unit is a result, not a crash
            traceback.print_exc()
            problems = [f"unit raised {error!r}"]
        finally:
            elapsed = time.perf_counter() - started
            cpu_elapsed = time.process_time() - cpu_started
            if traced:
                tracer.disable()
                tracer.unit = None
        if stats is not None:
            problems = workload.check(stats)
        if problems:
            failed += 1
            failures.extend(f"unit {index}: {problem}" for problem in problems)
        wall.append(elapsed)
        cpu.append(cpu_elapsed)
        traced_flags.append(traced)
        unit_stats.append(stats)  # None for a unit that raised

    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "params": workload.params,
        "attempted": units,
        "failed": failed,
        "failures": failures,
        "result_digest": workload.digest(unit_stats),
        "samples": {
            "setup_s": setup_samples,
            "unit_s": wall,
            "unit_cpu_s": cpu,
            "traced": traced_flags,
        },
    }
    if not trace:
        record["metrics"] = {
            "setup_s": statistics.median(setup_samples),
            "unit_s": statistics.median(wall),
            "unit_cpu_s": statistics.median(cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_share": failed / units,
        }
        return record

    untraced_wall = [value for value, flag in zip(wall, traced_flags) if not flag]
    traced_wall = [value for value, flag in zip(wall, traced_flags) if flag]
    listed = [metric["name"] for metric in load_contract()["per_layer"]]
    # Layers this workload does not exercise read 0.
    metrics = dict.fromkeys(listed, 0.0)
    metrics.update(
        tracer.layer_metrics(
            [name[len("figures."):-len("_s")] for name in listed if name.startswith("figures.")]
        )
    )
    for metric, key in workload.LAYER_STATS.items():
        values = [
            stats[key] for stats, flag in zip(unit_stats, traced_flags) if flag and stats
        ]
        if values:
            metrics[metric] = float(statistics.median(values))
    metrics["trace.overhead_ratio"] = statistics.median(traced_wall) / statistics.median(
        untraced_wall
    )
    record["metrics"] = metrics
    record["traced_unit_s"] = statistics.median(traced_wall)
    record["missing_trace_targets"] = tracer.missing
    # Kept in memory while measuring; ``--out`` writes them with the record.
    record["spans"] = {
        "columns": ["name", "start", "end", "parent", "unit"],
        "rows": [span[: tracing.COUNTS] for span in tracer.spans],
    }
    return record


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def driver_line(record: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The one-line JSON result: exactly the metrics ``BENCHMARK.json`` lists."""
    listed = contract["per_layer"] if record["trace"] else contract["end_to_end"]
    metrics = {
        metric["name"]: {
            # null: a trace target of this layer no longer exists.
            "value": record["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
        for metric in listed
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_record(record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """Every metric by name with its unit, for people."""
    units = {
        metric["name"]: metric["unit"]
        for metric in contract["end_to_end"] + contract["per_layer"]
    }
    units["failed_share"] = "ratio"  # reported here; the driver reads failed/attempted
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"units {record['attempted']}  failed {record['failed']}"
    )
    print(f"  result_digest  {record['result_digest']}")
    if "import_s" in record:
        print(f"  imports took {record['import_s']:.3f} s (not part of setup_s)")
    for failure in record["failures"]:
        print(f"  CHECK FAILED  {failure}")
    samples = record["samples"]
    for name in units:
        if name not in record["metrics"]:
            continue
        value = record["metrics"][name]
        text = "null" if value is None else f"{value:.6g}"
        line = f"  {name:<34}{text:>14} {units[name]}"
        if name in ("unit_s", "unit_cpu_s", "setup_s"):
            first, _, third = quartiles(samples[name])
            line += f"   q1 {first:.4g}  q3 {third:.4g}  n={len(samples[name])}"
        print(line)
    for target in record.get("missing_trace_targets", []):
        print(f"  WARNING  trace target {target} not found")


def write_out(path: str, arguments: argparse.Namespace, records: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"manifest": manifest(arguments), "results": records}, handle)
        handle.write("\n")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_one(arguments: argparse.Namespace) -> int:
    """One workload in this (fresh, single-threaded) process."""
    for name in THREAD_ENV:  # before NumPy loads its BLAS
        os.environ[name] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    contract = load_contract()
    started = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - started
    workload_class = workloads.WORKLOADS[arguments.workload]
    record = measure(
        workload_class,
        arguments.seed,
        bool(arguments.trace),
        overrides=workload_class.TINY if arguments.tiny else None,
    )
    record["import_s"] = import_s
    print_record(record, contract)
    if arguments.out:
        write_out(arguments.out, arguments, [record])
    print(driver_line(record, contract), flush=True)
    return 0


def run_all(arguments: argparse.Namespace) -> int:
    """Every workload ``--runs`` times, each in its own fresh subprocess."""
    contract = load_contract()
    records: List[Dict[str, Any]] = []
    status = 0
    for workload in contract["workloads"]:
        for run in range(arguments.runs):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload["name"],
                "--seed", str(arguments.seed + run),
                "--trace", str(arguments.trace),
            ]
            if arguments.tiny:
                command.append("--tiny")
            part = None
            if arguments.out:
                part = f"{arguments.out}.{workload['name']}.{run}.part"
                command += ["--out", part]
            done = subprocess.run(command)
            status = status or done.returncode
            if part and os.path.exists(part):
                with open(part, encoding="utf-8") as handle:
                    records.extend(json.load(handle)["results"])
                os.remove(part)
    if arguments.out:
        write_out(arguments.out, arguments, records)
    return status


def parse_arguments(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[workload["name"] for workload in contract["workloads"]],
        help="run this workload only, in this process",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help="sent by the benchmark driver; accepted and ignored, a run is its workload's "
             "fixed unit count (sized for run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced pass, per-layer metrics; 0: end-to-end metrics (default)",
    )
    parser.add_argument("--out", help="write manifest, parameters, samples and metrics as JSON")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--tiny", action="store_true",
                        help="harness self-test sizes; numbers are not comparable")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = parse_arguments(argv)
    return run_one(arguments) if arguments.workload else run_all(arguments)


if __name__ == "__main__":
    sys.exit(main())
