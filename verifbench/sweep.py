#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 verifbench/sweep.py --seeds 1-10 [--workloads grid-ar,travel-a2]
        [--trace 0|1] [--seconds N] [--out DIR] [-- EXTRA BENCHMARK ARGS]

Run from the repository root. Each run's standard output is saved as
DIR/<workload>.t<trace>.s<seed>.out (DIR defaults to .bench_runs/sweep), the
input `compare.py` reads. For every workload and metric the report gives the
median over the seeds, the quartiles as `statistics.quantiles(values, n=4)`
gives them, and the spread (q3 - q1) / median. End-to-end metrics are also
held against the bound `BENCHMARK.json` fixes: `ok` when the spread is under
a third of the bound, `WIDE` when it is over the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", default=os.path.join(".bench_runs", "sweep"))
    parser.add_argument("extra", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)

    failures = 0
    for workload in workloads:
        results = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ] + args.extra
            run = subprocess.run(cmd, capture_output=True, text=True)
            path = os.path.join(args.out, f"{workload}.t{args.trace}.s{seed}.out")
            with open(path, "w") as f:
                f.write(run.stdout)
            result = last_json(run.stdout) if run.returncode == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                failures += 1
                print(f"{workload} seed {seed}: exit {run.returncode}, result {result}")
                sys.stderr.write(run.stderr[-2000:])
            if result is not None:
                results.append(result)
        if len(results) < 2:
            continue
        print(f"\n{workload}  ({len(results)} seeds, trace {args.trace})")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  bound")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = f"{bound}"
            else:
                verdict = f"{bound} {'ok' if sp < bound / 3 else 'WIDE' if sp > bound else 'near'}"
            print(f"  {name:<30} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>7.3f}  {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
