#!/usr/bin/env python3
"""Compare two benchmark records: ``python benchmarks/e2e/compare.py A.json B.json``.

A and B are ``--out`` files of ``run.py`` (ideally ``--runs 10`` each).  One
row per (workload, end-to-end metric): both medians and quartiles over the
runs, the regression bound, and a verdict —

* ``worse``: B's median is worse than A's by more than the bound (and by
  more than the metric's absolute floor); for ``failed_share``, any run of B
  fails a larger share of its units than A's worst run;
* ``unresolved``: not worse by the medians, but the run-to-run spread is
  wider than the bound and the runs overlap, so "unchanged" is not shown;
* ``ok``: otherwise.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from run import load_contract, quartiles

#: Differences below these are noise whatever the ratio says.
ABSOLUTE_FLOOR = {"setup_s": 0.05, "peak_rss_mb": 5.0}
#: Not listed in ``BENCHMARK.json`` (it reads 0 on a correct run, and the
#: driver tracks failures itself), but compared here: any increase is worse.
#: Judged on the worst run, not the median, which a minority of failing runs
#: leaves at 0.
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per untraced run."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for record in document["results"]:
        if record["trace"]:
            continue
        for name, value in record["metrics"].items():
            runs[record["workload"]][name].append(value)
    return runs


def verdict(metric: Dict, a: Sequence[float], b: Sequence[float]) -> Tuple[str, Dict]:
    """Judge B against A on one lower-is-better metric."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    bound = metric["bound"]
    difference = b_median - a_median
    worse_by = difference / a_median if a_median else (float("inf") if difference > 0 else 0.0)
    spread = max(
        (a_q3 - a_q1) / a_median if a_median else 0.0,
        (b_q3 - b_q1) / b_median if b_median else 0.0,
    )
    if metric["name"] == FAILED_SHARE["name"]:
        result = "worse" if max(b) > max(a) else "ok"
    elif worse_by > bound and difference > ABSOLUTE_FLOOR.get(metric["name"], 0.0):
        result = "worse"
    elif spread > bound and not max(b) < min(a):
        result = "unresolved"
    else:
        result = "ok"
    return result, {
        "a": (a_q1, a_median, a_q3),
        "b": (b_q1, b_median, b_q3),
        "worse_by": worse_by,
        "spread": spread,
    }


def compare(path_a: str, path_b: str) -> List[Tuple[str, Dict, str, Dict]]:
    contract = load_contract()
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    rows = []
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in runs_a or name not in runs_b:
            continue
        for metric in contract["end_to_end"] + [FAILED_SHARE]:
            a, b = runs_a[name].get(metric["name"]), runs_b[name].get(metric["name"])
            if a and b:
                rows.append((name, metric, *verdict(metric, a, b)))
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(
        f"{'workload':<26}{'metric':<13}{'unit':<6}{'A q1/median/q3':>30}"
        f"{'B q1/median/q3':>30}{'B vs A':>9}{'bound':>7}  verdict"
    )
    for workload, metric, result, detail in rows:
        a = "/".join(f"{value:.4g}" for value in detail["a"])
        b = "/".join(f"{value:.4g}" for value in detail["b"])
        print(
            f"{workload:<26}{metric['name']:<13}{metric['unit']:<6}{a:>30}{b:>30}"
            f"{detail['worse_by']:>+9.1%}{metric['bound']:>7.0%}  {result}"
        )
    worse = sum(1 for _, _, result, _ in rows if result == "worse")
    unresolved = sum(1 for _, _, result, _ in rows if result == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
