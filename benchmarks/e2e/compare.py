"""Compare two sets of benchmark runs: a parent and a change.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT_DIR/ CHANGE_DIR/

Each directory holds the standard output of ``run.py`` runs, one file per
run (for example ``record-3.out``).  Run the parent and the change in
alternation, with the same seeds and ``--seconds``; files are paired in
name order.  Every end-to-end metric in BENCHMARK.json gets one row per
workload with each side's median and quartiles and a verdict:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  quartile distance;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound and not
  every change run reads better than every parent run;
* ``unchanged``: otherwise.

Per-layer metrics (traced runs) are listed with their medians and no
verdict: they have no bound.  The change in the share of failed
operations is printed per workload.  Exits 1 on any regression or a
higher failure share, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

#: (workload, trace) -> list of parsed results, in file-name order
Runs = Dict[Tuple[str, int], List[dict]]


def load_runs(directory: str) -> Runs:
    runs: Runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
        header = [ln for ln in lines if ln.startswith("# workload=")]
        if not header:
            continue
        fields = dict(f.split("=", 1) for f in header[0][2:].split())
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        key = (fields["workload"], int(fields["trace"]))
        runs.setdefault(key, []).append(result)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if not pmed:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cmed - pmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    if -gain / abs(pmed) > bound:
        return "regressed"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) / abs(pmed) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def fail_share(results: List[dict]) -> float:
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) + (not r.get("correct", False))
                 for r in results)
    return failed / attempted if attempted else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="compare parent and change benchmark runs")
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = False
    row = "{:8s} {:28s} {:>34s} {:>34s}  {}"
    print(row.format("workload", "metric", "parent q1/median/q3",
                     "change q1/median/q3", "verdict"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            a, b = parent.get((workload, trace)), change.get((workload, trace))
            if not a or not b:
                continue
            for m in metrics:
                va = [r["metrics"][m["name"]]["value"] for r in a
                      if m["name"] in r["metrics"]]
                vb = [r["metrics"][m["name"]]["value"] for r in b
                      if m["name"] in r["metrics"]]
                if not va or not vb:
                    continue
                if trace:
                    v = "-"
                else:
                    v = verdict(va, vb, m["better"], m["bound"])
                    bad |= v == "regressed"
                print(row.format(
                    workload, m["name"],
                    "/".join(f"{x:.4g}" for x in quartiles(va)),
                    "/".join(f"{x:.4g}" for x in quartiles(vb)), v))
        runs_a = parent.get((workload, 0), []) + parent.get((workload, 1), [])
        runs_b = change.get((workload, 0), []) + change.get((workload, 1), [])
        if runs_a and runs_b:
            fa, fb = fail_share(runs_a), fail_share(runs_b)
            print(f"{workload:8s} failure share {fa:.4f} -> {fb:.4f} "
                  f"({fb - fa:+.4f})")
            bad |= fb > fa
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
