#!/usr/bin/env python3
"""Renderer/validator for net_loadgen SLO-sweep reports.

Consumes the JSON report written by ``net_loadgen --json=...`` (one
run per target rate in ``--sweep-rates`` mode, docs/server.md) and
prints a GitHub-flavored Markdown throughput-vs-tail table — pipe it
into ``$GITHUB_STEP_SUMMARY`` in CI, or read it in a terminal. Under
``--validate`` it additionally enforces the open-loop accounting
invariants and exits nonzero on any violation (the same exit protocol
as trace_report.py):

  - the file is valid JSON with a non-empty ``runs`` array, and every
    run has the expected ``timing``/``stats`` blocks;
  - every scheduled arrival is accounted for:
    completed + lost_inflight == issued == ops (docs/robustness.md);
  - every point completed at least one op, and quantiles are ordered
    (p50 <= p99 <= p999);
  - loss and transport-error rates stay under --max-loss (default 1%),
    so a sweep that quietly shed load cannot pass as healthy;
  - with --expect-points N: the sweep ran exactly N rate points.

Usage:
  slo_report.py SLO.json                      # Markdown table
  slo_report.py SLO.json --validate           # CI gate
  slo_report.py SLO.json --validate --expect-points 4
"""

import argparse
import sys

from report_common import Reporter

R = Reporter("slo_report")


def load(path):
    doc = R.load_object(path, lambda d: isinstance(d.get("runs"), list),
                        "no runs array (not a bench JSON report)")
    if not doc["runs"]:
        R.fail(f"{path}: empty runs array")
    return doc


def us(ns):
    return f"{ns / 1000.0:.0f}"


def check_point(i, run, max_loss):
    """Validate one sweep point; returns a list of violation strings."""
    bad = []
    timing = run.get("timing")
    stats = run.get("stats")
    if not isinstance(timing, dict) or not isinstance(stats, dict):
        return [f"point {i}: missing timing/stats block"]

    for key in ("issued", "completed", "lost_inflight",
                "transport_errors"):
        if not isinstance(stats.get(key), (int, float)):
            bad.append(f"point {i}: stats.{key} missing")
    for key in ("ops_per_sec", "p50_ns", "p99_ns", "p999_ns"):
        if not isinstance(timing.get(key), (int, float)):
            bad.append(f"point {i}: timing.{key} missing")
    if bad:
        return bad

    issued = stats["issued"]
    completed = stats["completed"]
    lost = stats["lost_inflight"]
    ops = run.get("ops")

    # Open-loop accounting: the arrival schedule is the ground truth.
    if completed + lost != issued:
        bad.append(f"point {i}: completed {completed} + lost {lost} "
                   f"!= issued {issued}")
    if ops is not None and issued != ops:
        bad.append(f"point {i}: issued {issued} != scheduled ops {ops}")
    if completed == 0:
        bad.append(f"point {i}: no op completed")
    elif issued > 0:
        lossy = (lost + stats["transport_errors"]) / issued
        if lossy > max_loss:
            bad.append(f"point {i}: loss+transport rate {lossy:.2%} "
                       f"> --max-loss {max_loss:.2%}")
    if not (timing["p50_ns"] <= timing["p99_ns"] <= timing["p999_ns"]):
        bad.append(f"point {i}: quantiles not ordered "
                   f"(p50 {timing['p50_ns']:.0f}, "
                   f"p99 {timing['p99_ns']:.0f}, "
                   f"p999 {timing['p999_ns']:.0f})")
    return bad


def main():
    ap = argparse.ArgumentParser(
        description="Render/validate a net_loadgen SLO-sweep report")
    ap.add_argument("report", help="net_loadgen --json output")
    ap.add_argument("--validate", action="store_true",
                    help="enforce accounting invariants; nonzero exit "
                         "on any violation")
    ap.add_argument("--expect-points", type=int, default=0,
                    help="require exactly N sweep points")
    ap.add_argument("--max-loss", type=float, default=0.01,
                    help="max (lost+transport)/issued rate per point "
                         "under --validate (default 0.01)")
    args = ap.parse_args()

    doc = load(args.report)
    runs = doc["runs"]

    if args.expect_points and len(runs) != args.expect_points:
        R.fail(f"{len(runs)} sweep points, expected {args.expect_points}")

    first = runs[0]
    title = (f"workload={first.get('workload', '?')} "
             f"arrivals={first.get('arrivals', '?')} "
             f"connections={first.get('connections', '?')}")
    print(f"### zkv SLO sweep ({title})\n")
    print("| target ops/s | achieved ops/s | p50 (us) | p99 (us) "
          "| p99.9 (us) | completed | lost | xport err |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|")

    violations = []
    for i, run in enumerate(runs):
        violations.extend(check_point(i, run, args.max_loss))
        timing = run.get("timing", {})
        stats = run.get("stats", {})
        print(f"| {run.get('rate', 0):.0f} "
              f"| {timing.get('ops_per_sec', 0):.0f} "
              f"| {us(timing.get('p50_ns', 0))} "
              f"| {us(timing.get('p99_ns', 0))} "
              f"| {us(timing.get('p999_ns', 0))} "
              f"| {stats.get('completed', 0)} "
              f"| {stats.get('lost_inflight', 0)} "
              f"| {stats.get('transport_errors', 0)} |")
    print()

    if args.validate:
        R.finish(violations)
    return 0


if __name__ == "__main__":
    sys.exit(main())
