"""``run.py compare A.json B.json``: did B regress against A?

One row per workload x end-to-end metric: both medians, the ratio
B / A (A is the base), each side's spread (distance between first and
third quartile as a share of the median) and a verdict from the
bounds in ``BENCHMARK.json``:

``ok``
    B's median is not worse than A's by more than the bound.
``regressed``
    It is, and both spreads are within the bound.
``unresolved``
    A spread is wider than the bound, so the runs cannot tell —
    unless every run of B reads better than every run of A (``ok``).

The exit code is 1 when any row regressed.  Result files are what
``run.py --out FILE`` appends to; put the runs of one commit in one
file.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

__all__ = ["compare", "main", "spread"]


def spread(values: List[float]) -> float:
    """Interquartile distance over the median (0 for fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def _runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> values`` of the untraced runs in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    return table


def compare(base: Dict, change: Dict, spec: dict) -> List[dict]:
    """Rows comparing ``change`` against ``base`` (see the module docstring)."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = base.get(workload, {}).get(metric["name"])
            b = change.get(workload, {}).get(metric["name"])
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            lower_is_better = metric["better"] == "lower"
            worse_by = (median_b - median_a) / abs(median_a)
            if not lower_is_better:
                worse_by = -worse_by
            all_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
            wide = max(spread(a), spread(b)) > metric["bound"]
            if wide and not all_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "base_median": median_a, "change_median": median_b,
                "ratio": median_b / median_a, "base_runs": len(a), "change_runs": len(b),
                "base_spread": spread(a), "change_spread": spread(b),
                "bound": metric["bound"], "verdict": verdict,
            })
    return rows


def main(argv: List[str], spec: dict) -> int:
    """Print the comparison table; 1 when something regressed."""
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json   (A is the base)", file=sys.stderr)
        return 2
    rows = compare(_runs(argv[0]), _runs(argv[1]), spec)
    print(f"{'workload':<20} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<20} {row['metric']:<22} {row['base_median']:>12.4f} "
              f"{row['change_median']:>12.4f} {row['ratio']:>7.3f} {row['base_spread']:>9.3f} "
              f"{row['change_spread']:>9.3f} {row['bound']:>6.2f}  {row['verdict']} "
              f"({row['unit']}; base A, n={row['base_runs']}/{row['change_runs']})")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
