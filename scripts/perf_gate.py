#!/usr/bin/env python3
"""CI perf-regression gate: sim-walk ops/s against a committed baseline.

Runs the repository benchmark's sim-walk workload (perfbench/README.md)
through perfbench/run.py at the shape pinned in the baseline file
(workload, seed, seconds, runs), takes the median ``ops_per_s`` and
compares it with the baseline's value. Exit 1 when a run exits
non-zero, reports ``correct`` other than true or ``failed`` > 0, or when
the median falls outside the baseline's tolerance band (+/-25%): a
slowdown is a regression, a speedup asks for recalibration.

Usage, from the repository root:
  perf_gate.py                          # gate this checkout
  perf_gate.py --update-baseline        # recalibrate at the pinned shape
  perf_gate.py --baseline <path>        # gate against another baseline

The shape lives only in the baseline file: to change it, edit the file,
then recalibrate. ``--update-baseline`` runs the gate's shape
CALIBRATION times and writes the median of those medians. Calibrate on
the runner class that runs the gate (docs/performance.md).

When GITHUB_STEP_SUMMARY is set, a markdown table of the verdict is
appended to it so the verdict shows up in the Actions job summary.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from report_common import Reporter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "results", "reference", "perf_baseline.json")
SHAPE = ("workload", "seed", "seconds", "runs")
CALIBRATION = 3  # gate invocations behind a committed baseline

R = Reporter("perf_gate")


def run_once(shape):
    """One perfbench run; returns its end-to-end metrics (name -> value)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", shape["workload"], "--seed", str(shape["seed"]),
           "--seconds", str(shape["seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        R.fail(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        R.fail("perfbench printed no JSON result line")
    if res.get("correct") is not True or res.get("failed") != 0:
        R.fail(f"perfbench reported correct={res.get('correct')}, "
               f"failed={res.get('failed')}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def invocation(shape):
    """The gate's runs at shape: (median ops/s, per-run metrics)."""
    runs = []
    for i in range(shape["runs"]):
        m = run_once(shape)
        print(f"run {i + 1}/{shape['runs']}: {m['ops_per_s']:,.0f} ops/s, "
              f"peak_rss_mb {m['peak_rss_mb']:.2f}", flush=True)
        runs.append(m)
    median = statistics.median(m["ops_per_s"] for m in runs)
    print(f"median: {median:,.0f} ops/s", flush=True)
    return median, runs


def write_summary(lines):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=BASELINE,
                    help="baseline JSON holding the shape and ops_per_s")
    ap.add_argument("--update-baseline", action="store_true",
                    help="recalibrate the baseline at its pinned shape")
    args = ap.parse_args()

    keys = SHAPE + ("ops_per_s", "tolerance")
    base = R.load_object(args.baseline, lambda d: all(k in d for k in keys),
                         f"not a perf baseline (needs {', '.join(keys)})")
    shape = {k: base[k] for k in SHAPE}
    print(f"shape: {shape['workload']} seed {shape['seed']}, "
          f"{shape['runs']} x {shape['seconds']} s", flush=True)

    if args.update_baseline:
        medians = [invocation(shape)[0] for _ in range(CALIBRATION)]
        base["ops_per_s"] = statistics.median(medians)
        base["calibration"] = medians
        base["runner"] = {"machine": platform.machine(),
                          "system": platform.system(),
                          "cpus": os.cpu_count()}
        with open(args.baseline, "w") as f:
            json.dump(base, f, indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline}: "
              f"{base['ops_per_s']:,.0f} ops/s, median of "
              f"{', '.join(f'{m:,.0f}' for m in medians)}")
        return

    median, runs = invocation(shape)
    ref = float(base["ops_per_s"])
    tol = float(base["tolerance"])
    delta = (median - ref) / ref
    violations = []
    if median < ref * (1 - tol):
        violations.append(f"regression: median {median:,.0f} ops/s is "
                          f"{delta:+.1%} against {ref:,.0f} (band "
                          f"+/-{tol:.0%})")
    elif median > ref * (1 + tol):
        violations.append(f"speedup: median {median:,.0f} ops/s is "
                          f"{delta:+.1%} against {ref:,.0f} (band "
                          f"+/-{tol:.0%}); if intentional, recalibrate "
                          "with --update-baseline (docs/performance.md)")
    verdict = "FAIL" if violations else "PASS"
    print(f"baseline: {ref:,.0f} ops/s (tolerance +/-{tol:.0%})")
    print(f"delta: {delta:+.1%} -> {verdict}", flush=True)

    per_run = ", ".join(f"{m['ops_per_s']:,.0f}" for m in runs)
    write_summary([
        f"### Perf gate: {shape['workload']} ops/s (seed {shape['seed']}, "
        f"{shape['runs']} x {shape['seconds']} s)",
        "",
        "| metric | value |",
        "|---|---|",
        f"| runs ops/s | {per_run} |",
        f"| median ops/s | {median:,.0f} |",
        f"| baseline ops/s | {ref:,.0f} |",
        f"| delta | {delta:+.1%} |",
        f"| tolerance | +/-{tol:.0%} |",
        f"| peak_rss_mb (max of runs) | "
        f"{max(m['peak_rss_mb'] for m in runs):.2f} |",
        f"| verdict | **{verdict}** |",
    ])
    R.finish(violations)


if __name__ == "__main__":
    main()
