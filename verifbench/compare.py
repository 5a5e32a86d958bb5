#!/usr/bin/env python3
"""Compares benchmark runs of two commits, workload by workload.

    python3 verifbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds saved standard outputs of benchmark runs, one file per
run, as `sweep.py --out DIR` writes them; traced (`--trace 1`) and untraced
runs may be mixed. Run it from the repository root, where `BENCHMARK.json`
says which way each metric is better and how far an end-to-end metric may
worsen.

For every workload and metric it prints the parent's and the change's median
and quartiles (`statistics.quantiles(values, n=4)`) and the move of the
median. A move is flagged when it is larger than the parent's own quartile
spread (q3 - q1): `better` or `worse` by the metric's direction. A count
repeats exactly, so any move of a count is flagged. An end-to-end metric
whose median worsened by more than its bound is flagged `REGRESSION`.
Ratios and rates are printed with the medians of their bases.
"""

import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): [{"metrics": ..., "bases": ...}, ...]}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        header, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                doc = json.loads(line)
                if "bench_run" in doc:
                    header = doc["bench_run"]
                elif "metrics" in doc:
                    result = doc
        if header is None or result is None:
            print(f"skipping {path}: no benchmark result in it", file=sys.stderr)
            continue
        key = (header["workload"], header["trace"])
        runs.setdefault(key, []).append(
            {"metrics": result["metrics"], "bases": header.get("bases", {}),
             "correct": result["correct"]}
        )
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e6 else f"{v:.0f}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    regressions = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        print(f"\n{workload}  trace={trace}  runs: parent {len(p_runs)}, change {len(c_runs)}")
        if not all(r["correct"] for r in p_runs + c_runs):
            print("  WARNING: some runs reported correct=false")
        print(f"  {'metric':<30} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'move':>8}  flag")
        for name in p_runs[0]["metrics"]:
            p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not p or not c:
                continue
            pq1, pm, pq3 = quartiles(p)
            cq1, cm, cq3 = quartiles(c)
            move = cm - pm
            rel = move / pm if pm else 0.0
            flag = ""
            is_count = name.startswith("count.")
            if (is_count and move != 0) or (not is_count and abs(move) > pq3 - pq1):
                improved = (move < 0) == (better.get(name, "lower") == "lower")
                flag = "better" if improved else "worse"
            bound = bounds.get(name)
            if bound is not None and better.get(name) == "lower" and rel > bound:
                flag, regressions = "REGRESSION", regressions + 1
            if bound is not None and better.get(name) == "higher" and -rel > bound:
                flag, regressions = "REGRESSION", regressions + 1
            base = p_runs[0]["bases"].get(name)
            if base:
                pb = statistics.median(r["metrics"][base]["value"] for r in p_runs)
                cb = statistics.median(r["metrics"][base]["value"] for r in c_runs)
                flag += f"  (base {base}: {fmt(pb)} -> {fmt(cb)})"
            print(
                f"  {name:<30} {fmt(pq1):>9} {fmt(pm):>10} {fmt(pq3):>9} "
                f"{fmt(cq1):>9} {fmt(cm):>10} {fmt(cq3):>9} {rel:>+7.1%}  {flag}"
            )
    only = set(parent) ^ set(change)
    for workload, trace in sorted(only):
        print(f"\n{workload} trace={trace}: runs on one side only")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
