"""The six benchmark workloads, their output checks and their tolerances.

Each workload repeats a fixed *unit* of work on inputs generated from the
seed; ``run.py`` times the units and calls :meth:`Workload.check` on every
unit's recorded statistics (outside the timed region).  The tolerance
bands live in each workload's ``DEFAULTS`` next to the sizes they were
calibrated for: every band is at least twice the worst deviation seen over
seeds {2004, 7, 99} (the measured worst case is quoted beside it), and
``TINY`` holds the small-N overrides the harness self-test runs.

Why these six: see ``why`` on each class and ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import numpy as np

from repro.common.rng import RandomSource
from repro.core.count import LeaderElection
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction
from repro.experiments.config import BENCH
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import RunPlan, repeat_traces, uniform_initial_values
from repro.simulator import (
    ChurnModel,
    CountCrashModel,
    EpochDriver,
    TransportModel,
    build_async_count,
    make_simulator,
)
from repro.simulator.asynchrony import HOSTILE
from repro.topology import TopologySpec, build_overlay

Stats = Dict[str, Any]


def stats_digest(stats: Any) -> str:
    """sha256 over recorded statistics; floats enter bit-exactly (hex form)."""

    def canonical(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {str(key): canonical(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [canonical(item) for item in value]
        return value

    text = json.dumps(canonical(stats), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def convergence_factor(first_variance: float, last_variance: float, cycles: int) -> float:
    """Geometric-mean per-cycle variance reduction, ``(σ²_c / σ²_0)^(1/c)``."""
    if first_variance <= 0.0 or cycles <= 0:
        return math.nan
    return (last_variance / first_variance) ** (1.0 / cycles)


def outside_band(value: float, band) -> bool:
    centre, half_width = band
    return not (abs(value - centre) <= half_width)  # NaN is outside


NEWSCAST_ARRAY = {"vectorized": True}


class Workload:
    """One benchmark workload: seeded set-up, a repeatable unit, a check."""

    name = ""
    why = ""
    #: Sizes, unit count, set-up repetitions and check tolerances.
    DEFAULTS: Dict[str, Any] = {}
    #: Overrides for the harness self-test (numbers not comparable).
    TINY: Dict[str, Any] = {}
    #: per-layer metric name -> key of the unit statistics that carries it.
    LAYER_STATS: Dict[str, str] = {}
    #: ``result_digest`` of a run: sha256 over every unit's statistics.
    digest = staticmethod(stats_digest)

    def __init__(self, seed: int, **overrides) -> None:
        unknown = set(overrides) - set(self.DEFAULTS)
        if unknown:
            raise ValueError(f"{self.name}: unknown parameters {sorted(unknown)}")
        self.params = {**self.DEFAULTS, **overrides}
        self.rng = RandomSource(seed).child(self.name)
        #: ``tracer.span`` on the traced pass; figures open their own spans.
        self.span = lambda name: nullcontext()

    def setup(self) -> None:
        """Build overlays/engines from the seed (timed as part of ``setup_s``)."""

    def warm_up(self) -> None:
        """One unit that is not counted, so lazy set-up finishes; charged to ``setup_s``."""
        self.unit(self.inputs(-1))

    def inputs(self, index: int) -> Any:
        """Generate unit ``index``'s inputs (untimed)."""
        return None

    def unit(self, inputs: Any) -> Stats:
        """The timed work; returns the recorded statistics."""
        raise NotImplementedError

    def check(self, stats: Stats) -> List[str]:
        """Reasons the unit's output is wrong (empty when correct)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# 1 + 2: AVERAGE on the vectorized engine, static vs NEWSCAST overlay
# ----------------------------------------------------------------------
class _AverageRun(Workload):
    """Shared unit of the two N=1e5 AVERAGE workloads."""

    def _topology(self) -> TopologySpec:
        raise NotImplementedError

    def _transport(self) -> TransportModel:
        return TransportModel(message_loss_probability=self.params["message_loss"])

    def setup(self) -> None:
        self.overlay = build_overlay(
            self._topology(), self.params["size"], self.rng.child("topology")
        )

    def inputs(self, index: int):
        rng = self.rng.child("unit", index)
        values = rng.child("values").generator.uniform(0.0, 100.0, self.params["size"])
        return values, rng.child("simulation")

    def unit(self, inputs) -> Stats:
        values, rng = inputs
        cycles, factor_cycles = self.params["cycles"], self.params["factor_cycles"]
        simulator = make_simulator(
            self.overlay,
            AverageFunction(),
            values,
            rng,
            transport=self._transport(),
            record_every=cycles,
        )
        # run() always records its last cycle, so this leaves records at
        # cycles 0, factor_cycles and cycles without per-cycle statistics.
        simulator.run(factor_cycles)
        simulator.run(cycles - factor_cycles)
        records = simulator.trace.records
        return {
            "cycles": [record.cycle for record in records],
            "variances": [float(record.variance) for record in records],
            "means": [float(record.mean) for record in records],
            "true_mean": float(values.mean()),
        }

    def check(self, stats: Stats) -> List[str]:
        problems = []
        factor_cycles = self.params["factor_cycles"]
        if stats["cycles"][1:2] != [factor_cycles]:
            problems.append(f"no record at cycle {factor_cycles}: {stats['cycles']}")
            factor = math.nan
        else:
            factor = convergence_factor(
                stats["variances"][0], stats["variances"][1], factor_cycles
            )
        if outside_band(factor, self.params["factor_band"]):
            problems.append(
                f"convergence factor {factor:.4f} outside {self.params['factor_band']}"
            )
        drift = abs(stats["means"][-1] - stats["true_mean"]) / abs(stats["true_mean"])
        if not drift <= self.params["mean_tolerance"]:
            problems.append(
                f"relative mean error {drift:.3g} above {self.params['mean_tolerance']}"
            )
        return problems


class AvgStatic(_AverageRun):
    name = "avg-static-n100k"
    why = (
        "cycle-engine kernels (plan draw, conflict rounds, gather/merge/scatter) "
        "do ~95% of a unit and NEWSCAST none; shows static build cost and memory"
    )
    DEFAULTS = {
        "size": 100_000,
        "degree": 20,
        "message_loss": 0.0,
        "cycles": 30,
        "factor_cycles": 20,
        "units": 20,
        # The 570 MB build is page-fault bound and reads 4..8 s on the same box;
        # the median of three rejects the slow tail.
        "setup_repeats": 3,
        # A 20-out random graph is slightly slower than the 1/(2*sqrt(e)) = 0.3033
        # of uniform peer sampling; measured 0.3173..0.3189 (worst deviation 0.0009).
        "factor_band": (0.318, 0.006),
        # Perfect transport conserves mass; measured <= 2.9e-16.
        "mean_tolerance": 1e-9,
    }
    TINY = {"size": 1_000, "units": 2, "setup_repeats": 1, "factor_band": (0.318, 0.05)}

    def _topology(self) -> TopologySpec:
        return TopologySpec("random", degree=self.params["degree"])


class AvgNewscast(_AverageRun):
    name = "avg-newscast-n100k"
    why = (
        "mirror image of avg-static: NEWSCAST maintenance (after_cycle, "
        "merge_packed_pairs, narrow int32 packing) is ~90% of a unit; lossy filter path"
    )
    DEFAULTS = {
        "size": 100_000,
        "cache": 30,
        "message_loss": 0.05,
        # 5 bootstrap rounds + (1 warm-up + 5 timed) units x 10 cycles keeps the
        # overlay clock below 128, so every unit runs the narrow int32 packing.
        "cycles": 10,
        "factor_cycles": 10,
        "units": 5,
        "setup_repeats": 2,
        # 5% message loss slows push-pull; measured 0.3700..0.3720 (worst 0.0011).
        "factor_band": (0.371, 0.006),
        # Lost responses break mass conservation; measured <= 7.1e-4.
        "mean_tolerance": 0.01,
    }
    TINY = {"size": 1_000, "units": 2, "setup_repeats": 1, "factor_band": (0.37, 0.06),
            "mean_tolerance": 0.05}

    def _topology(self) -> TopologySpec:
        return TopologySpec("newscast", degree=self.params["cache"], params=NEWSCAST_ARRAY)


# ----------------------------------------------------------------------
# 3: the practical protocol on the cycle engine
# ----------------------------------------------------------------------
class CountEpochs(Workload):
    name = "count-epochs-n10k"
    why = (
        "EpochDriver on array NEWSCAST under churn and loss: wide COUNT state rows, "
        "membership writes, election and trimmed reduction; wide int64 NEWSCAST regime"
    )
    DEFAULTS = {
        "size": 10_000,
        "cache": 30,
        "cycles_per_epoch": 30,
        "concurrent_target": 20.0,
        "initial_estimate_factor": 0.25,
        "churn_per_cycle": 0.005,
        "message_loss": 0.05,
        # Warm-up epochs take the overlay clock past 128 (wide int64 packing).
        "warm_epochs": 5,
        "epochs_per_unit": 2,
        "units": 7,
        "setup_repeats": 2,
        # |estimate - N| / N per epoch; measured worst 0.059.
        "estimate_tolerance": 0.15,
    }
    TINY = {"size": 600, "cycles_per_epoch": 15, "warm_epochs": 1, "epochs_per_unit": 1,
            "units": 2, "setup_repeats": 1, "estimate_tolerance": 0.5}
    LAYER_STATS = {"epochs.size_rel_err": "size_rel_err"}

    def setup(self) -> None:
        params = self.params
        size = params["size"]
        overlay = build_overlay(
            TopologySpec("newscast", degree=params["cache"], params=NEWSCAST_ARRAY),
            size,
            self.rng.child("topology"),
        )
        churn = max(1, int(round(params["churn_per_cycle"] * size)))
        self.driver = EpochDriver(
            overlay=overlay,
            election=LeaderElection(
                concurrent_target=params["concurrent_target"],
                estimated_size=max(2.0, params["initial_estimate_factor"] * size),
            ),
            epoch_config=EpochConfig(cycles_per_epoch=params["cycles_per_epoch"]),
            rng=self.rng.child("epochs"),
            transport=TransportModel(message_loss_probability=params["message_loss"]),
            failure_factory=lambda epoch_id: ChurnModel(churn),
            record_every=params["cycles_per_epoch"],
        )
        self.driver.run(params["warm_epochs"])

    def unit(self, inputs) -> Stats:
        done = len(self.driver.result.records)
        self.driver.run(self.params["epochs_per_unit"])
        records = self.driver.result.records[done:]
        size = self.params["size"]
        return {
            "epochs": [
                [record.epoch_id, record.leader_count, float(record.size_estimate),
                 bool(record.dry), record.participant_count]
                for record in records
            ],
            "size_rel_err": max(
                abs(record.size_estimate - size) / size for record in records
            ),
        }

    def check(self, stats: Stats) -> List[str]:
        problems = []
        size, tolerance = self.params["size"], self.params["estimate_tolerance"]
        if len(stats["epochs"]) != self.params["epochs_per_unit"]:
            problems.append(f"{len(stats['epochs'])} epochs recorded")
        for epoch_id, _, estimate, dry, _ in stats["epochs"]:
            if dry:
                problems.append(f"epoch {epoch_id} was dry")
            if not abs(estimate - size) / size <= tolerance:
                problems.append(
                    f"epoch {epoch_id} estimate {estimate:.0f} not within "
                    f"{tolerance:.0%} of {size}"
                )
        return problems


# ----------------------------------------------------------------------
# 4: one figure point on the replicated engine
# ----------------------------------------------------------------------
class RepeatsReplicated(Workload):
    name = "repeats-replicated-n10k"
    why = (
        "one figure point, R=20 x N=1e4 stacked: block topology build, per-replica "
        "Python loops, stack_cycle_plans and per-cycle metric extraction inside the unit"
    )
    DEFAULTS = {
        "size": 10_000,
        "degree": 20,
        "repeats": 20,
        "cycles": 20,
        "link_failure": 0.1,
        "crashes_per_cycle": 50,
        "units": 5,
        "setup_repeats": 2,
        # Mean factor over the 20 traces with P_d = 0.1 and 50 crashes/cycle;
        # measured 0.36534..0.36582 (worst deviation 0.0003).
        "factor_band": (0.3656, 0.005),
    }
    TINY = {"size": 500, "repeats": 3, "crashes_per_cycle": 2, "units": 2,
            "setup_repeats": 1, "factor_band": (0.365, 0.06)}

    def setup(self) -> None:
        params = self.params
        crashes = params["crashes_per_cycle"]
        self.plan = RunPlan(
            topology=TopologySpec("random", degree=params["degree"]),
            size=params["size"],
            cycles=params["cycles"],
            values=uniform_initial_values,
            transport=TransportModel(link_failure_probability=params["link_failure"]),
            failure_factory=lambda: CountCrashModel(crashes),
            record_every=1,
        )
        #: Digest of the first unit run; every unit repeats the same seed,
        #: so every later unit must reproduce it bit for bit.
        self.reference_digest: Optional[str] = None

    def unit(self, inputs) -> Stats:
        params = self.params
        traces = repeat_traces(params["repeats"], self.rng.seed, plan=self.plan)
        stats = {
            "records": [len(trace) for trace in traces],
            "survivors": [trace.final.participant_count for trace in traces],
            "factors": [trace.average_convergence_factor(params["cycles"]) for trace in traces],
            "final_means": [float(trace.final.mean) for trace in traces],
            "final_variances": [float(trace.final.variance) for trace in traces],
        }
        digest = stats_digest(stats)
        if self.reference_digest is None:
            self.reference_digest = digest
        stats["reference_digest"] = self.reference_digest
        stats["digest"] = digest
        return stats

    def check(self, stats: Stats) -> List[str]:
        params = self.params
        problems = []
        if stats["records"] != [params["cycles"] + 1] * params["repeats"]:
            problems.append(f"trace lengths {stats['records']}")
        survivors = params["size"] - params["cycles"] * params["crashes_per_cycle"]
        if stats["survivors"] != [survivors] * params["repeats"]:
            problems.append(f"survivors {stats['survivors']}, expected {survivors} each")
        factor = float(np.mean(stats["factors"])) if stats["factors"] else math.nan
        if outside_band(factor, params["factor_band"]):
            problems.append(f"mean factor {factor:.4f} outside {params['factor_band']}")
        if stats["digest"] != stats["reference_digest"]:
            problems.append("same seed produced a different trace than the first unit")
        return problems


# ----------------------------------------------------------------------
# 5: the practical protocol on the asynchronous engine
# ----------------------------------------------------------------------
class AsyncCount(Workload):
    name = "async-count-n10k"
    why = (
        "only workload where async_engine and the async transport draws do the work: "
        "lognormal WAN latency, timeouts, drift, loss and churn on array NEWSCAST"
    )
    DEFAULTS = {
        "size": 10_000,
        "cache": 30,
        "cycles_per_epoch": 30,
        "units": 12,
        "setup_repeats": 3,
        # An epoch is complete, and checked once, when this share of the
        # nodes has reported it.
        "reporting_share": 0.9,
        # |estimate - N| / N per completed epoch.  HOSTILE (timeouts + loss +
        # drift) makes single epochs noisy: measured worst 0.301.
        "estimate_tolerance": 0.65,
        # Nominal epochs run (warm-up included) minus epochs checked so far:
        # the newest epoch is usually still collecting reports; measured worst 1.
        "max_unchecked_epochs": 2,
        # completed / initiated exchanges under HOSTILE; measured 0.698..0.706.
        "completed_band": (0.702, 0.02),
    }
    TINY = {"size": 600, "cycles_per_epoch": 15, "units": 2, "setup_repeats": 1,
            "estimate_tolerance": 0.9, "completed_band": (0.7, 0.15)}
    LAYER_STATS = {
        "async_engine.ticks_per_unit": "ticks",
        "async_engine.completed_share": "completed_share",
    }

    def setup(self) -> None:
        params = self.params
        overlay = build_overlay(
            TopologySpec("newscast", degree=params["cache"], params=NEWSCAST_ARRAY),
            params["size"],
            self.rng.child("topology"),
        )
        self.simulator, self.protocol = build_async_count(
            overlay,
            self.rng.child("simulation"),
            HOSTILE,
            epoch_config=EpochConfig(cycles_per_epoch=params["cycles_per_epoch"]),
            record_every=params["cycles_per_epoch"],
        )
        self.checked_epochs: set = set()
        self.epochs_run = 0

    def unit(self, inputs) -> Stats:
        before = dict(self.simulator.statistics)
        self.simulator.run(self.params["cycles_per_epoch"])
        self.epochs_run += 1
        after = self.simulator.statistics
        ticks = after["ticks"] - before["ticks"]
        completed = after["completed"] - before["completed"]
        threshold = self.params["reporting_share"] * self.params["size"]
        epochs = []
        for record in self.protocol.epoch_records():
            if record.epoch_id not in self.checked_epochs and record.reporters >= threshold:
                self.checked_epochs.add(record.epoch_id)
                epochs.append(
                    [record.epoch_id, record.leader_count, float(record.mean_estimate),
                     record.reporters]
                )
        return {
            "epochs": epochs,
            "epochs_run": self.epochs_run,
            "epochs_checked": len(self.checked_epochs),
            "ticks": int(ticks),
            "completed_share": completed / ticks if ticks else 0.0,
        }

    def check(self, stats: Stats) -> List[str]:
        problems = []
        size, tolerance = self.params["size"], self.params["estimate_tolerance"]
        if outside_band(stats["completed_share"], self.params["completed_band"]):
            problems.append(
                f"completed share {stats['completed_share']:.3f} outside "
                f"{self.params['completed_band']}"
            )
        # Without this an engine on which no epoch ever completes would pass
        # the estimate check below by having nothing to check.
        if stats["epochs_run"] - stats["epochs_checked"] > self.params["max_unchecked_epochs"]:
            problems.append(
                f"only {stats['epochs_checked']} epochs were checked after "
                f"{stats['epochs_run']} nominal epochs"
            )
        for epoch_id, _, estimate, _ in stats["epochs"]:
            if not abs(estimate - size) / size <= tolerance:
                problems.append(
                    f"epoch {epoch_id} estimate {estimate:.0f} not within "
                    f"{tolerance:.0%} of {size}"
                )
        return problems


# ----------------------------------------------------------------------
# 6: every figure once at bench scale
# ----------------------------------------------------------------------
class FiguresBench(Workload):
    name = "figures-bench"
    why = (
        "every ALL_FIGURES entry at tiny N, where Python orchestration, the reference "
        "engine and the dict NEWSCAST dominate: the cost of reproduce_figures.py"
    )
    DEFAULTS = {
        "network_size": BENCH.network_size,
        # One repetition per point keeps the single pass near 9 s, inside the
        # run budget even when the box is slow.
        "repeats": 1,
        "sweep_points": BENCH.sweep_points,
        "figures": tuple(ALL_FIGURES),
        # Rows each figure returns at sweep_points=4 (None: data-dependent).
        "expected_rows": {
            "2": 31, "3a": 32, "3b": 408, "4a": 4, "4b": 4, "5": 8, "6a": 4, "6b": 4,
            "7a": 4, "7b": 4, "8a": 4, "8b": 4, "adaptive": 10, "adaptive-async": 6,
            "byzantine": 4, "partition": 30, "cost": None,
        },
        "units": 1,
        "setup_repeats": 2,
        # The set-up pass runs the same figures at this size to finish lazy set-up.
        "warm_network_size": 60,
        # Fig. 3a, random topology, one run at N=400; measured 0.3025..0.3233
        # (worst deviation 0.0105).
        "factor_band": (0.313, 0.04),
    }
    TINY = {"network_size": 60, "repeats": 1, "sweep_points": 2, "setup_repeats": 1,
            "warm_network_size": 40,
            "figures": ("2", "3a", "7a", "cost"),
            "expected_rows": {"2": 31, "3a": 8, "7a": 3, "cost": None},
            "factor_band": (0.313, 0.1)}

    def _scale(self, **overrides):
        params = self.params
        return BENCH.with_overrides(
            network_size=params["network_size"],
            repeats=params["repeats"],
            sweep_points=params["sweep_points"],
            seed=self.rng.seed,
        ).with_overrides(**overrides)

    def _run_figures(self, scale) -> Dict[str, list]:
        rows = {}
        for figure_id in self.params["figures"]:
            with self.span(f"figures.{figure_id}"):
                rows[figure_id] = ALL_FIGURES[figure_id](scale).rows
        return rows

    def warm_up(self) -> None:
        # A full pass is the whole unit; the same figures at a small size
        # touch the same code paths for a tenth of the cost.
        self._run_figures(
            self._scale(
                network_size=self.params["warm_network_size"], repeats=1, sweep_points=2
            )
        )

    def unit(self, inputs) -> Stats:
        rows = self._run_figures(self._scale())
        flat = [
            (figure_id, column, value)
            for figure_id, figure_rows in rows.items()
            for row in figure_rows
            for column, value in row.items()
        ]
        random_3a = [
            row for row in rows.get("3a", []) if row["topology"] == "random"
        ]
        return {
            "rows": {figure_id: len(figure_rows) for figure_id, figure_rows in rows.items()},
            "nan_cells": sorted(
                {f"{figure_id}.{column}" for figure_id, column, value in flat
                 if isinstance(value, float) and math.isnan(value)}
            ),
            "factor_3a_random": (
                float(max(random_3a, key=lambda row: row["network_size"])["convergence_factor"])
                if random_3a else None
            ),
            "values_digest": stats_digest(
                [[f, c, float(v) if isinstance(v, (float, np.floating)) else str(v)]
                 for f, c, v in flat]
            ),
        }

    def check(self, stats: Stats) -> List[str]:
        problems = []
        for figure_id in self.params["figures"]:
            expected = self.params["expected_rows"][figure_id]
            got = stats["rows"].get(figure_id, 0)
            if got < 1 or (expected is not None and got != expected):
                problems.append(f"figure {figure_id}: {got} rows, expected {expected}")
        # inf is the model's mark for a diverged COUNT run (e.g. 6a's
        # diverged_runs); NaN would be a computation gone wrong.
        if stats["nan_cells"]:
            problems.append(f"NaN in {stats['nan_cells']}")
        if "3a" in self.params["figures"] and (
            stats["factor_3a_random"] is None
            or outside_band(stats["factor_3a_random"], self.params["factor_band"])
        ):
            problems.append(
                f"fig 3a random-topology factor {stats['factor_3a_random']} outside "
                f"{self.params['factor_band']}"
            )
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (AvgStatic, AvgNewscast, CountEpochs, RepeatsReplicated, AsyncCount, FiguresBench)
}
