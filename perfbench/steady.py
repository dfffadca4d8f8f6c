#!/usr/bin/env python3
"""Steadiness tool: repeats each workload with k seeds and prints, per
end-to-end metric, the median, the quartiles and the interquartile range
as a share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads cold_unique] [--seed-base 101]

Run from the root of a checkout. Every run lasts BENCHMARK.json's
run_seconds. A metric is marked "ok" when its spread is below a third of
its bound. The failed-operation share is printed per workload; it must be
the same in every run. Raw results go to --out as JSON when given.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    steady = True
    for workload in workloads:
        results = []
        for k in range(args.runs):
            res = run_once(workload, args.seed_base + k, seconds, 0)
            results.append(res)
            print(f"{workload} seed {args.seed_base + k}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, correct={correct}, failed shares {sorted(shares)}")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>10}"
              f"{'bound':>8}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound / 3
            steady = steady and ok and correct and len(shares) == 1
            print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>10.4f}"
                  f"{bound:>8}  {'ok' if ok else 'WIDE'}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
