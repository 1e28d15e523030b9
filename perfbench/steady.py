#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/steady.py [--workloads a,b] [--runs N] [--seconds S]
                                [--fixed-seed]

Runs every workload (by default those BENCHMARK.json lists) N times,
untraced, through perfbench/run.py with seeds 1, 2, ..., or seed 1 every
time with --fixed-seed. Prints, per workload and metric, the median, the
interquartile range (IQR, from statistics.quantiles with n=4) as a share
of the median, and the max/min ratio, after the workload's failed /
attempted op totals. A metric whose IQR share exceeds a tenth is flagged
"SPREAD"; with --fixed-seed a metric that read the same in every run is
marked "exact". Exits 1 if any run failed or reported correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED0 = 1
FLAG = 0.1  # the noise rules keep a metric only if it repeats within this


def listed_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    res = json.loads(lines[-1])
    return res if res.get("correct") else None


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / med if med else float("inf")
    lo, hi = min(values), max(values)
    ratio = hi / lo if lo > 0 else float("inf")
    return med, iqr, ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(listed_workloads()))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--fixed-seed", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be >= 2")

    bad = False
    for w in args.workloads.split(","):
        values = {}
        units = {}
        attempted = failed = 0
        for i in range(args.runs):
            seed = SEED0 if args.fixed_seed else SEED0 + i
            res = run_once(w, seed, args.seconds)
            if res is None:
                print(f"{w}: run with seed {seed} failed", flush=True)
                bad = True
                continue
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        seeds = (f"seed {SEED0}" if args.fixed_seed
                 else f"seeds {SEED0}..{SEED0 + args.runs - 1}")
        print(f"\n## {w} ({args.runs} runs, {seeds})")
        print(f"failed / attempted: {failed} / {attempted}")
        print("| metric | unit | median | IQR/median | max/min | |")
        print("|---|---|---|---|---|---|")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            med, iqr, ratio = spread(vs)
            mark = "SPREAD" if iqr > FLAG else ""
            if args.fixed_seed and len(set(vs)) == 1:
                mark = (mark + " exact").strip()
            print(f"| {name} | {units[name]} | {med:.6g} | {iqr:.4f} | "
                  f"{ratio:.4f} | {mark} |", flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
