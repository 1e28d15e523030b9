#!/usr/bin/env python3
"""Offline reporter/validator for zkv live-telemetry artifacts.

Consumes the Chrome trace-event JSON written by the store's tracer
(``store_loadgen --trace-out=...``) and, optionally, the windowed
metrics NDJSON (``--metrics-out=...``), and prints a per-phase latency
summary: op counts by kind, total/net/lock-wait/probe/walk time, drop
accounting, and per-thread span counts. Under ``--validate`` it checks
the structural invariants the C++ tests pin down (tests/test_obs.cpp,
docs/telemetry.md) and exits nonzero on any violation — the CI smoke
job runs it against a fresh trace on every push:

  - the file is valid JSON with a ``traceEvents`` array;
  - every event has the required keys for its phase type, and child
    spans (net/lock_wait/probe/walk) nest inside their op span's interval;
  - ``otherData`` reconciles: ops_recorded + ops_dropped == ops_expected
    (when the producer supplied an expected count), and ops_recorded
    equals the op spans actually present in the file;
  - with --metrics: every NDJSON record parses, d_* deltas are
    non-negative, and each d_* column sums to the final cumulative
    counter (the windows partition the run).

Usage:
  trace_report.py TRACE.json                         # summarize
  trace_report.py TRACE.json --validate              # CI gate
  trace_report.py TRACE.json --metrics M.ndjson --validate
  trace_report.py TRACE.json --expect-ops N          # cross-check count
"""

import argparse
import collections
import json
import sys

from report_common import Reporter

R = Reporter("trace_report")

OP_NAMES = ("get", "put", "erase")
PHASE_NAMES = ("net", "lock_wait", "probe", "walk")


def load_trace(path):
    doc = R.load_object(
        path, lambda d: "traceEvents" in d,
        "no traceEvents array (not a trace-event document)")
    if not isinstance(doc["traceEvents"], list):
        R.fail(f"{path}: traceEvents is not an array")
    return doc


def scan(doc, validate):
    """One pass over the events: tallies + structural checks."""
    ops = collections.Counter()          # op name -> count
    phase_us = collections.Counter()     # phase name -> total us
    op_us = collections.Counter()        # op name -> total us
    per_thread = collections.Counter()   # tid -> op span count
    flags = collections.Counter()        # hit/inserted/evicted/error
    instants = 0
    metadata = 0
    open_op = {}                         # tid -> (ts, dur) of last op span

    for i, e in enumerate(doc["traceEvents"]):
        if not isinstance(e, dict):
            R.fail(f"event {i} is not an object")
        ph = e.get("ph")
        name = e.get("name")
        if ph is None or name is None:
            R.fail(f"event {i} lacks ph/name")
        if ph == "M":
            metadata += 1
            continue
        tid = e.get("tid")
        ts = e.get("ts")
        if validate and (tid is None or ts is None):
            R.fail(f"event {i} ({name}) lacks tid/ts")
        if ph == "i":
            instants += 1
            continue
        if ph != "X":
            R.fail(f"event {i} has unexpected phase type {ph!r}")
        dur = e.get("dur")
        if validate and dur is None:
            R.fail(f"complete event {i} ({name}) lacks dur")
        if name in OP_NAMES:
            ops[name] += 1
            op_us[name] += dur or 0.0
            per_thread[tid] += 1
            open_op[tid] = (ts, dur or 0.0)
            args = e.get("args", {})
            for flag in ("hit", "inserted", "evicted", "error"):
                if args.get(flag):
                    flags[flag] += 1
        elif name in PHASE_NAMES:
            phase_us[name] += dur or 0.0
            if validate:
                parent = open_op.get(tid)
                if parent is None:
                    R.fail(f"child span {i} ({name}) precedes any op span "
                           f"on tid {tid}")
                pts, pdur = parent
                if ts < pts - 1e-6 or ts + (dur or 0.0) > pts + pdur + 1e-3:
                    R.fail(f"child span {i} ({name}) [{ts}, {ts + dur}] "
                           f"escapes its op span [{pts}, {pts + pdur}]")
        else:
            R.fail(f"event {i} has unexpected name {name!r}")

    return {
        "ops": ops,
        "op_us": op_us,
        "phase_us": phase_us,
        "per_thread": per_thread,
        "flags": flags,
        "instants": instants,
        "metadata": metadata,
    }


def check_reconciliation(doc, tallies, expect_ops):
    other = doc.get("otherData", {})
    recorded = other.get("ops_recorded")
    dropped = other.get("ops_dropped")
    expected = other.get("ops_expected")
    span_total = sum(tallies["ops"].values())

    if recorded is None or dropped is None:
        R.fail("otherData lacks ops_recorded/ops_dropped")
    if recorded != span_total:
        R.fail(f"otherData.ops_recorded={recorded} but the file holds "
               f"{span_total} op spans")
    if expect_ops is not None:
        expected = expect_ops
    if expected:
        if recorded + dropped != expected:
            R.fail(f"recorded({recorded}) + dropped({dropped}) != "
                   f"expected({expected})")
    return recorded, dropped, expected


def check_metrics(path, validate):
    records = []
    try:
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    R.fail(f"{path}:{ln}: {e}")
    except OSError as e:
        R.fail(f"{path}: {e}")
    if not records:
        if validate:
            R.fail(f"{path}: no metrics windows")
        return records

    deltas = collections.Counter()
    for ln, rec in enumerate(records, 1):
        for k, v in rec.items():
            if k.startswith("d_"):
                if validate and v < 0:
                    R.fail(f"{path} window {ln}: {k}={v} is negative")
                deltas[k[2:]] += v
    final = records[-1]
    for name, total in sorted(deltas.items()):
        if name in final and validate and total != final[name]:
            R.fail(f"{path}: sum(d_{name})={total} != final "
                   f"cumulative {name}={final[name]} — windows do not "
                   f"partition the run")
    return records


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", help="Chrome trace-event JSON from the tracer")
    ap.add_argument("--metrics", help="windowed metrics NDJSON to check")
    ap.add_argument("--expect-ops", type=int, default=None,
                    help="total ops the run performed (overrides the "
                         "trace's own ops_expected)")
    ap.add_argument("--validate", action="store_true",
                    help="enforce structural invariants; nonzero exit on "
                         "any violation")
    args = ap.parse_args()

    doc = load_trace(args.trace)
    tallies = scan(doc, args.validate)
    recorded, dropped, expected = check_reconciliation(
        doc, tallies, args.expect_ops)

    span_total = sum(tallies["ops"].values())
    print(f"trace: {args.trace}")
    print(f"  events: {len(doc['traceEvents'])} "
          f"({span_total} op spans, {tallies['instants']} instants, "
          f"{tallies['metadata']} metadata)")
    print(f"  threads: {len(tallies['per_thread'])}  "
          f"recorded: {recorded}  dropped: {dropped}"
          + (f"  expected: {expected}" if expected else ""))

    for name in OP_NAMES:
        n = tallies["ops"][name]
        if n == 0:
            continue
        mean_us = tallies["op_us"][name] / n
        print(f"  {name:5s} x{n:<10d} mean {mean_us:9.3f} us")
    total_op_us = sum(tallies["op_us"].values())
    if total_op_us > 0:
        for phase in PHASE_NAMES:
            us = tallies["phase_us"][phase]
            print(f"  {phase:9s} {us:12.1f} us total "
                  f"({100.0 * us / total_op_us:5.1f}% of op time)")
    if tallies["flags"]:
        pretty = ", ".join(f"{k}={v}"
                           for k, v in sorted(tallies["flags"].items()))
        print(f"  outcomes: {pretty}")

    if args.metrics:
        windows = check_metrics(args.metrics, args.validate)
        print(f"metrics: {args.metrics}: {len(windows)} windows")
        if windows:
            last = windows[-1]
            ops = last.get("ops")
            if ops is not None:
                print(f"  final cumulative ops: {ops}")
            if args.validate and expected and ops is not None:
                if ops != expected:
                    R.fail(f"metrics final ops={ops} != expected {expected}")

    if args.validate:
        R.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
