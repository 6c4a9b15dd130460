"""Span tracer for the traced benchmark pass: layers timed from outside.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` wraps
the public callables listed in :data:`TARGETS` with a span recorder and
turns the recorded spans into the per-layer metrics of ``BENCHMARK.json``.

Wrapping is *by identity*: a target is resolved once to its function
object, and every attribute of a loaded ``repro.*`` module (or of a class
defined in one) that ``is`` that object is replaced by the wrapper — so
``from .sampling import draw_cycle_plan`` aliases in caller modules are
traced too, and a refactor that moves a caller does not break the trace.
A target that no longer exists is reported in :attr:`Tracer.missing` and
its metrics read ``None``; it never raises.

The untraced benchmark pass never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Name of the root span ``run.py`` opens around every traced unit; its
#: self time is the unit time that no layer span covers.
UNIT_SPAN = "unit"

# Span record layout (plain lists: appended on the hot path).
NAME, START, END, PARENT, UNIT, COUNTS = range(6)


# ----------------------------------------------------------------------
# Counts taken at the span boundary (``measure(args, kwargs, result)``)
# ----------------------------------------------------------------------
def _conflict_round_counts(args, kwargs, result) -> Tuple[int, int]:
    """(rounds scheduled, exchanges scheduled) of one conflict peel."""
    return len(result), int(args[0].size)


def _classified_counts(args, kwargs, result) -> Tuple[int, int]:
    """(completed, attempted) exchange slots of one transport draw."""
    # OUTCOME_COMPLETED is code 0 (repro.simulator.transport).
    return int(result.size) - int(np.count_nonzero(result)), int(result.size)


def _elected_count(args, kwargs, result) -> Tuple[int]:
    return (int(result.size),)


# ----------------------------------------------------------------------
# What is wrapped: (span name, target, measure)
# ----------------------------------------------------------------------
# A target is ``"module:qualname"`` for one callable, or a method family
# ``"module:Base/method"`` (``":/method"`` for any base): every class of a
# loaded ``repro.*`` module that defines ``method`` itself and, when
# ``Base`` is given, subclasses it.
_SIM = "repro.simulator."
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("topology.build", "repro.topology.generators:build_overlay", None),
    ("topology.build", "repro.topology.replicated:ReplicatedStaticBlock.build_k_out", None),
    ("topology.build", "repro.topology.replicated:ReplicatedStaticBlock.from_builder", None),
    ("topology.build", "repro.newscast.vectorized_cache:VectorizedNewscastOverlay.bootstrap", None),
    ("topology.build", "repro.newscast.vectorized_cache:ReplicatedNewscastBlock.bootstrap", None),
    ("topology.select_peers", ":/select_peers_batch", None),
    ("sampling.draw_plan", _SIM + "sampling:draw_cycle_plan", None),
    ("sampling.conflict_rounds", _SIM + "sampling:ordered_conflict_rounds", _conflict_round_counts),
    ("sampling.stack_plans", _SIM + "sampling:stack_cycle_plans", None),
    ("transport.classify", _SIM + "transport:TransportModel.classify_exchanges", _classified_counts),
    ("transport.reachability", _SIM + "transport:apply_reachability", None),
    ("transport.reachability", _SIM + "failures:ReachabilityModel/blocked_pairs", None),
    ("transport.async_classify", _SIM + "transport:classify_async_exchanges", None),
    ("transport.async_classify", _SIM + "transport:DelayModel.sample_delays", None),
    ("vectorized.run_cycle", _SIM + "vectorized:VectorizedCycleSimulator.run_cycle", None),
    ("vectorized.construct", _SIM + "vectorized:VectorizedCycleSimulator.__init__", None),
    ("vectorized.filter", _SIM + "vectorized:effective_exchange_filter", None),
    ("vectorized.merge_rounds", _SIM + "vectorized:apply_merge_rounds", None),
    ("replicated.run_cycle", _SIM + "replicated:ReplicatedCycleSimulator.run_cycle", None),
    ("replicated.construct", _SIM + "replicated:ReplicatedCycleSimulator.__init__", None),
    ("cycle_sim.run_cycle", _SIM + "cycle_sim:CycleSimulator.run_cycle", None),
    ("functions.merge_arrays", ":/merge_arrays", None),
    ("functions.estimate_array", ":/estimate_array", None),
    ("functions.initial_state", ":/initial_state_array", None),
    ("count.elect", "repro.core.count:LeaderElection.elect_batch", _elected_count),
    ("count.reduce", "repro.core.count:count_estimates_from_matrix", None),
    ("failures.apply", _SIM + "failures:FailureModel/apply", None),
    ("newscast.after_cycle", "repro.newscast.vectorized_cache:VectorizedNewscastOverlay.after_cycle", None),
    ("newscast.after_cycle", "repro.newscast.vectorized_cache:ReplicatedNewscastBlock.after_cycle_stacked", None),
    ("newscast.merge_pairs", "repro.newscast.vectorized_cache:merge_packed_pairs", None),
    ("newscast.membership", "repro.newscast.vectorized_cache:VectorizedNewscastOverlay.on_node_added", None),
    ("newscast.membership", "repro.newscast.vectorized_cache:VectorizedNewscastOverlay.on_node_removed", None),
    ("newscast.dict_after_cycle", "repro.newscast.protocol:NewscastOverlay.after_cycle", None),
    ("metrics.statistics", _SIM + "metrics:estimate_statistics", None),
    ("epochs.run", _SIM + "epochs:EpochDriver.run", None),
    ("async_engine.run", _SIM + "async_engine:AsyncPracticalSimulator.run", None),
    ("async_engine.merge_rows", _SIM + "async_engine:AsyncProtocol/merge_rows", None),
    ("runner.repeat", "repro.experiments.runner:repeat_simulations", None),
]

#: Per-layer seconds metrics: metric name -> (span name, "self" | "total").
#: Self time is the span minus its child spans; "total" keeps the children
#: (used where the span *is* the layer: the reference engine, the dict
#: overlay, one whole figure).
SECONDS_METRICS: Dict[str, Tuple[str, str]] = {
    "topology.build_s": ("topology.build", "self"),
    "topology.select_peers_s": ("topology.select_peers", "self"),
    "sampling.draw_plan_s": ("sampling.draw_plan", "self"),
    "sampling.conflict_rounds_s": ("sampling.conflict_rounds", "self"),
    "sampling.stack_plans_s": ("sampling.stack_plans", "self"),
    "transport.classify_s": ("transport.classify", "self"),
    "transport.reachability_s": ("transport.reachability", "self"),
    "transport.async_classify_s": ("transport.async_classify", "self"),
    "vectorized.run_cycle_self_s": ("vectorized.run_cycle", "self"),
    "vectorized.construct_s": ("vectorized.construct", "self"),
    "vectorized.filter_s": ("vectorized.filter", "self"),
    "vectorized.merge_rounds_self_s": ("vectorized.merge_rounds", "self"),
    "replicated.run_cycle_self_s": ("replicated.run_cycle", "self"),
    "replicated.construct_s": ("replicated.construct", "self"),
    "cycle_sim.run_cycle_s": ("cycle_sim.run_cycle", "total"),
    "functions.merge_arrays_s": ("functions.merge_arrays", "self"),
    "functions.estimate_array_s": ("functions.estimate_array", "self"),
    "functions.initial_state_s": ("functions.initial_state", "self"),
    "count.elect_s": ("count.elect", "self"),
    "count.reduce_s": ("count.reduce", "self"),
    "failures.apply_s": ("failures.apply", "self"),
    "newscast.after_cycle_self_s": ("newscast.after_cycle", "self"),
    "newscast.merge_pairs_s": ("newscast.merge_pairs", "self"),
    "newscast.membership_s": ("newscast.membership", "self"),
    "newscast.dict_after_cycle_s": ("newscast.dict_after_cycle", "total"),
    "metrics.statistics_s": ("metrics.statistics", "self"),
    "epochs.run_self_s": ("epochs.run", "self"),
    "async_engine.run_self_s": ("async_engine.run", "self"),
    "async_engine.merge_rows_s": ("async_engine.merge_rows", "self"),
    "runner.repeat_self_s": ("runner.repeat", "self"),
    "trace.unattributed_s": (UNIT_SPAN, "self"),
}


#: Per-layer metrics derived from call counts and boundary counts.
COUNT_METRICS = (
    "sampling.rounds_per_call",
    "sampling.exchanges_per_round",
    "transport.completed_share",
    "count.leaders_per_epoch",
    "failures.apply_calls",
    "newscast.merge_pairs_calls",
    "runner.replicated_calls",
    "runner.serial_calls",
)


def _repro_modules() -> List:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _repro_classes() -> List[type]:
    seen: Dict[int, type] = {}
    for module in _repro_modules():
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("repro"):
                seen[id(value)] = value
    return list(seen.values())


def _raw(entry):
    """The plain function behind a class- or module-dict entry."""
    return entry.__func__ if isinstance(entry, (classmethod, staticmethod)) else entry


def _resolve(target: str) -> List[Callable]:
    """The function objects a target names (empty when it does not exist)."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name) if module_name else None
        if "/" in qualname:
            base_name, _, method = qualname.partition("/")
            base = getattr(owner, base_name) if base_name else None
            functions = [
                _raw(vars(cls)[method])
                for cls in _repro_classes()
                if method in vars(cls) and (base is None or issubclass(cls, base))
            ]
            return [
                function
                for function in functions
                if not getattr(function, "__isabstractmethod__", False)
            ]
        *path, leaf = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return [_raw(vars(owner)[leaf])]
    except (ImportError, AttributeError, KeyError):
        return []


class Tracer:
    """Records spans around the :data:`TARGETS` while enabled.

    ``install()`` resolves the targets and finds every alias;
    ``enable()`` / ``disable()`` swap the wrappers in and the originals
    back (exactly: the very objects that were there before).
    """

    def __init__(self, targets=None) -> None:
        self.targets = TARGETS if targets is None else targets
        self.spans: List[list] = []
        self.unit: Optional[int] = None
        self.missing: List[str] = []
        self._stack: List[int] = []
        # (owner namespace object, attribute, original entry, wrapper entry)
        self._patches: List[Tuple[object, str, object, object]] = []
        self._enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _wrap(self, name: str, function: Callable, measure: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[COUNTS] = measure(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span from the benchmark's own code (units, figures)."""
        if not self._enabled:
            yield
            return
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.unit, None]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Resolve every target and locate its aliases (patches nothing yet)."""
        wrappers: Dict[int, Callable] = {}
        self.missing = []
        for name, target, measure in self.targets:
            functions = _resolve(target)
            if not functions:
                self.missing.append(target)
                warnings.warn(f"trace target {target!r} not found; {name} reads null")
            for function in functions:
                wrappers.setdefault(id(function), self._wrap(name, function, measure))
        self._patches = []
        namespaces = _repro_modules() + _repro_classes()
        for owner in namespaces:
            for attribute, entry in list(vars(owner).items()):
                wrapper = wrappers.get(id(_raw(entry)))
                if wrapper is None:
                    continue
                if isinstance(entry, (classmethod, staticmethod)):
                    wrapper = type(entry)(wrapper)
                self._patches.append((owner, attribute, entry, wrapper))

    def patched_attributes(self) -> List[Tuple[object, str]]:
        """Every ``(owner, attribute)`` the tracer swaps while enabled."""
        return [(owner, attribute) for owner, attribute, _, _ in self._patches]

    def enable(self) -> None:
        if not self._enabled:
            for owner, attribute, _, wrapper in self._patches:
                setattr(owner, attribute, wrapper)
            self._enabled = True

    def disable(self) -> None:
        if self._enabled:
            for owner, attribute, original, _ in self._patches:
                setattr(owner, attribute, original)
            self._enabled = False

    def missing_spans(self) -> List[str]:
        """Span names with at least one target that could not be resolved."""
        return sorted(
            {name for name, target, _ in self.targets if target in self.missing}
        )

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def unit_ids(self) -> List[int]:
        return sorted({span[UNIT] for span in self.spans if span[UNIT] is not None})

    def unit_breakdown(self, unit: int) -> Dict[str, Dict[str, float]]:
        """Per span name of one unit: self seconds, total seconds, calls.

        ``total`` counts a span only when no ancestor carries the same
        name, so recursive or nested same-name spans are not doubled.
        """
        spans = self.spans
        child_time: Dict[int, float] = {}
        for index, span in enumerate(spans):
            if span[UNIT] == unit and span[PARENT] >= 0:
                child_time[span[PARENT]] = (
                    child_time.get(span[PARENT], 0.0) + span[END] - span[START]
                )
        result: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            if span[UNIT] != unit:
                continue
            duration = span[END] - span[START]
            entry = result.setdefault(span[NAME], {"self": 0.0, "total": 0.0, "calls": 0})
            entry["self"] += duration - child_time.get(index, 0.0)
            entry["calls"] += 1
            ancestor = span[PARENT]
            while ancestor >= 0 and spans[ancestor][NAME] != span[NAME]:
                ancestor = spans[ancestor][PARENT]
            if ancestor < 0:
                entry["total"] += duration
        return result

    def unit_counts(self, unit: int, name: str) -> List[Tuple[int, ...]]:
        """The boundary counts recorded by ``name`` spans of one unit."""
        return [
            span[COUNTS]
            for span in self.spans
            if span[UNIT] == unit and span[NAME] == name and span[COUNTS] is not None
        ]

    def spans_with_descendant(self, unit: int, name: str, descendant: str) -> Tuple[int, int]:
        """(``name`` spans containing a ``descendant`` span, ``name`` spans)."""
        spans = self.spans
        holders = set()
        for span in spans:
            if span[UNIT] != unit or span[NAME] != descendant:
                continue
            ancestor = span[PARENT]
            while ancestor >= 0:
                if spans[ancestor][NAME] == name:
                    holders.add(ancestor)
                ancestor = spans[ancestor][PARENT]
        total = sum(1 for span in spans if span[UNIT] == unit and span[NAME] == name)
        return len(holders), total

    def layer_metrics(self, figure_ids: List[str]) -> Dict[str, Optional[float]]:
        """Every span-derived per-layer metric, as the median over traced units.

        Seconds metrics are 0.0 where the layer did no work and ``None``
        where a target of the layer is missing.
        """
        units = self.unit_ids()
        breakdowns = [self.unit_breakdown(unit) for unit in units]
        missing = set(self.missing_spans())

        def median_of(values: List[float]) -> float:
            return float(statistics.median(values)) if values else 0.0

        def seconds(span_name: str, kind: str) -> Optional[float]:
            if span_name in missing:
                return None
            return median_of(
                [breakdown.get(span_name, {}).get(kind, 0.0) for breakdown in breakdowns]
            )

        def calls(span_name: str) -> Optional[float]:
            if span_name in missing:
                return None
            return median_of(
                [breakdown.get(span_name, {}).get("calls", 0) for breakdown in breakdowns]
            )

        def ratio(span_name: str, numerator: int, denominator: Optional[int]) -> Optional[float]:
            """Σ counts[numerator] ÷ Σ counts[denominator] (or ÷ calls) per unit."""
            if span_name in missing:
                return None
            values = []
            for unit in units:
                counts = self.unit_counts(unit, span_name)
                if not counts:
                    continue
                top = sum(count[numerator] for count in counts)
                bottom = (
                    len(counts)
                    if denominator is None
                    else sum(count[denominator] for count in counts)
                )
                if bottom:
                    values.append(top / bottom)
            return median_of(values)

        metrics: Dict[str, Optional[float]] = {
            metric: seconds(span_name, kind)
            for metric, (span_name, kind) in SECONDS_METRICS.items()
        }
        for figure_id in figure_ids:
            # Spans opened by the figures workload itself, one per figure.
            metrics[f"figures.{figure_id}_s"] = seconds(f"figures.{figure_id}", "total")
        metrics["sampling.rounds_per_call"] = ratio("sampling.conflict_rounds", 0, None)
        metrics["sampling.exchanges_per_round"] = ratio("sampling.conflict_rounds", 1, 0)
        metrics["transport.completed_share"] = ratio("transport.classify", 0, 1)
        metrics["count.leaders_per_epoch"] = ratio("count.elect", 0, None)
        metrics["failures.apply_calls"] = calls("failures.apply")
        metrics["newscast.merge_pairs_calls"] = calls("newscast.merge_pairs")
        if "runner.repeat" in missing or "replicated.construct" in missing:
            metrics["runner.replicated_calls"] = metrics["runner.serial_calls"] = None
        else:
            pairs = [
                self.spans_with_descendant(unit, "runner.repeat", "replicated.construct")
                for unit in units
            ]
            metrics["runner.replicated_calls"] = median_of([hit for hit, _ in pairs])
            metrics["runner.serial_calls"] = median_of([total - hit for hit, total in pairs])
        return metrics
