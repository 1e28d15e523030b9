#!/usr/bin/env python3
"""Renderer/validator for store_loadgen --scaling reports.

Consumes the JSON report written by ``store_loadgen --scaling
--json=...`` (docs/performance.md, "Multi-core get scaling") and prints
a GitHub-flavored Markdown thread-count-vs-throughput table — pipe it
into ``$GITHUB_STEP_SUMMARY`` in CI, or read it in a terminal. Under
``--validate`` it additionally enforces the scaling-curve invariants
and exits nonzero on any violation (the same exit protocol as
trace_report.py / slo_report.py):

  - the file is valid JSON with a top-level ``scaling`` block holding a
    non-empty ``points`` array, each point carrying threads /
    gets_per_sec / p99_ns / get_speedup;
  - the sweep includes a 1-thread baseline point;
  - every point completed at least one get (a 0-gets point means the
    mix or workload was misconfigured, not that scaling is bad);
  - with --min-ratio R and --at-threads N (default 8): the N-thread
    point's get throughput is >= R x the 1-thread point's — the CI
    scaling floor. The point is matched exactly; a sweep that never
    reached N threads fails rather than silently passing.
  - the run rows' read_path matches --expect-read-path when given (the
    gate asserts the *optimistic* path scales; a locked-path report
    passing by luck should be loud, not silent).

Usage:
  scaling_report.py SCALING.json                     # Markdown table
  scaling_report.py SCALING.json --validate          # CI gate (3x @ 8)
  scaling_report.py SCALING.json --validate --min-ratio 3 --at-threads 8
"""

import argparse
import sys

from report_common import Reporter

R = Reporter("scaling_report")


def load(path):
    doc = R.load_object(path)
    scaling = doc.get("scaling")
    if not isinstance(scaling, dict) or not isinstance(
            scaling.get("points"), list):
        R.fail(f"{path}: no scaling.points block "
               f"(was the report written with --scaling?)")
    if not scaling["points"]:
        R.fail(f"{path}: empty scaling.points array")
    return doc


def main():
    ap = argparse.ArgumentParser(
        description="Render/validate a store_loadgen --scaling report")
    ap.add_argument("report", help="store_loadgen --scaling --json output")
    ap.add_argument("--validate", action="store_true",
                    help="enforce scaling invariants; nonzero exit on "
                         "any violation")
    ap.add_argument("--min-ratio", type=float, default=3.0,
                    help="required get-throughput speedup at "
                         "--at-threads vs 1 thread (default 3.0)")
    ap.add_argument("--at-threads", type=int, default=8,
                    help="thread count the ratio is asserted at "
                         "(default 8)")
    ap.add_argument("--expect-read-path", default="",
                    help="require every run row's read_path to match "
                         "(e.g. optimistic)")
    args = ap.parse_args()

    doc = load(args.report)
    scaling = doc["scaling"]
    points = scaling["points"]

    violations = []
    for i, pt in enumerate(points):
        for key in ("threads", "gets_per_sec", "p99_ns", "get_speedup"):
            if not isinstance(pt.get(key), (int, float)):
                violations.append(f"point {i}: missing/non-numeric "
                                  f"'{key}'")
    if args.expect_read_path:
        if scaling.get("read_path") != args.expect_read_path:
            violations.append(
                f"scaling.read_path is '{scaling.get('read_path')}', "
                f"expected '{args.expect_read_path}'")
        for i, run in enumerate(doc.get("runs", [])):
            rp = run.get("read_path")
            if rp is not None and rp != args.expect_read_path:
                violations.append(f"run {i}: read_path '{rp}', expected "
                                  f"'{args.expect_read_path}'")

    title = (f"read_path={scaling.get('read_path', '?')} "
             f"workload={scaling.get('workload', '?')} "
             f"gets={100.0 * scaling.get('get_frac', 0):.0f}%")
    print(f"### zkv get-throughput scaling ({title})\n")
    print("| threads | ops/s | gets/s | p99 (us) | get speedup |")
    print("|---:|---:|---:|---:|---:|")
    by_threads = {}
    for pt in points:
        t = int(pt.get("threads", 0))
        by_threads[t] = pt
        print(f"| {t} "
              f"| {pt.get('ops_per_sec', 0):.0f} "
              f"| {pt.get('gets_per_sec', 0):.0f} "
              f"| {pt.get('p99_ns', 0) / 1000.0:.1f} "
              f"| {pt.get('get_speedup', 0):.2f}x |")
    print()

    base = by_threads.get(1)
    if base is None:
        violations.append("no 1-thread baseline point in the sweep")
    elif base.get("gets_per_sec", 0) <= 0:
        violations.append("1-thread point completed no gets")
    for pt in points:
        if pt.get("gets_per_sec", 0) <= 0:
            violations.append(
                f"{int(pt.get('threads', 0))}-thread point completed "
                f"no gets")

    ratio = None
    at = by_threads.get(args.at_threads)
    # Reports from before the host block carry no CPU count.
    cpus = doc.get("host", {}).get("cpus", "?")
    if base is not None and base.get("gets_per_sec", 0) > 0 and at:
        ratio = at["gets_per_sec"] / base["gets_per_sec"]
        print(f"get throughput at {args.at_threads} threads: "
              f"{ratio:.2f}x the 1-thread baseline "
              f"(floor: {args.min_ratio:.2f}x) on {cpus} CPUs\n")

    if args.validate:
        if at is None:
            violations.append(
                f"no {args.at_threads}-thread point in the sweep "
                f"(threads swept: {sorted(by_threads)})")
        elif ratio is not None and ratio < args.min_ratio:
            violations.append(
                f"get throughput at {args.at_threads} threads is only "
                f"{ratio:.2f}x the 1-thread baseline "
                f"(floor {args.min_ratio:.2f}x) on {cpus} CPUs")
        R.finish(violations)
    return 0


if __name__ == "__main__":
    sys.exit(main())
