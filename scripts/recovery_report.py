#!/usr/bin/env python3
"""Offline reporter/validator for zkv crash-recovery reports.

Consumes the recovery report JSON written by ``zkv_server
--recovery-report-out=...`` (docs/durability.md) and prints a per-shard
summary: snapshot coverage, log records replayed vs skipped, salvaged
bytes, and seqno-gap drop evidence. Under ``--validate`` it checks the
accounting invariants the C++ tests pin down (tests/test_persist.cpp)
and exits nonzero on any violation — the CI crash-recovery smoke job
runs it against a post-SIGKILL restart on every push:

  - the file is a JSON object with ``shards``, totals, and a
    ``per_shard`` array of exactly ``shards`` entries in shard order;
  - per shard, ``replayed + skipped == log_records`` (every decoded
    record is either applied or covered by the snapshot watermark),
    ``valid_bytes`` is ``log_records`` whole 33-byte records, and
    ``high_water >= snapshot_watermark``;
  - a shard without a snapshot cannot have skipped records or a
    nonzero watermark;
  - every seqno gap is a real hole (``next_seqno > prev_seqno + 1``)
    at a record-aligned byte offset, and ``dropped_records`` equals
    the summed gap widths exactly;
  - salvaged bytes always come with a human-readable warning, and the
    top-level totals equal the per-shard sums.

Usage:
  recovery_report.py REPORT.json                  # summarize
  recovery_report.py REPORT.json --validate       # CI gate
  recovery_report.py REPORT.json --validate --expect-clean
      # additionally require zero salvaged bytes / gaps / warnings
"""

import argparse
import sys

from report_common import Reporter

R = Reporter("recovery_report")

OP_RECORD_SIZE = 33  # framed PUT/ERASE/EVICT record (docs/durability.md)

SHARD_KEYS = (
    "shard", "snapshot_loaded", "snapshot_records", "snapshot_watermark",
    "log_segments", "log_records", "replayed", "skipped", "valid_bytes",
    "salvaged_bytes", "dropped_records", "high_water", "seqno_gaps",
    "warnings",
)

TOTAL_KEYS = ("replayed", "skipped", "salvaged_bytes", "dropped_records")


def check_shard(i, s):
    """Structural + accounting invariants for one shard entry."""
    for k in SHARD_KEYS:
        if k not in s:
            R.fail(f"shard entry {i} lacks key {k!r}")
    if s["shard"] != i:
        R.fail(f"per_shard[{i}].shard={s['shard']} — entries out of order")
    if s["replayed"] + s["skipped"] != s["log_records"]:
        R.fail(f"shard {i}: replayed({s['replayed']}) + "
               f"skipped({s['skipped']}) != log_records({s['log_records']})")
    if s["valid_bytes"] != s["log_records"] * OP_RECORD_SIZE:
        R.fail(f"shard {i}: valid_bytes={s['valid_bytes']} is not "
               f"log_records({s['log_records']}) x {OP_RECORD_SIZE}-byte "
               f"records")
    if s["high_water"] < s["snapshot_watermark"]:
        R.fail(f"shard {i}: high_water={s['high_water']} < "
               f"snapshot_watermark={s['snapshot_watermark']}")
    if not s["snapshot_loaded"]:
        if s["snapshot_records"] != 0 or s["snapshot_watermark"] != 0:
            R.fail(f"shard {i}: no snapshot loaded but snapshot_records="
                   f"{s['snapshot_records']} watermark="
                   f"{s['snapshot_watermark']}")
        if s["skipped"] != 0:
            R.fail(f"shard {i}: {s['skipped']} records skipped without a "
                   f"snapshot watermark to cover them")

    gap_width = 0
    for j, g in enumerate(s["seqno_gaps"]):
        for k in ("segment", "byte_offset", "prev_seqno", "next_seqno"):
            if k not in g:
                R.fail(f"shard {i} gap {j} lacks key {k!r}")
        if g["next_seqno"] <= g["prev_seqno"] + 1:
            R.fail(f"shard {i} gap {j}: [{g['prev_seqno']} -> "
                   f"{g['next_seqno']}] is not a hole")
        if g["byte_offset"] % OP_RECORD_SIZE != 0:
            R.fail(f"shard {i} gap {j}: byte_offset={g['byte_offset']} "
                   f"is not record-aligned")
        gap_width += g["next_seqno"] - g["prev_seqno"] - 1
    if gap_width != s["dropped_records"]:
        R.fail(f"shard {i}: dropped_records={s['dropped_records']} but "
               f"the gaps account for {gap_width}")
    if s["salvaged_bytes"] > 0 and not s["warnings"]:
        R.fail(f"shard {i}: {s['salvaged_bytes']} bytes salvaged "
               f"without a warning")


def check_totals(doc):
    per = doc["per_shard"]
    if doc.get("shards") != len(per):
        R.fail(f"shards={doc.get('shards')} but per_shard holds "
               f"{len(per)} entries")
    for k in TOTAL_KEYS:
        total = sum(s[k] for s in per)
        if doc.get(k) != total:
            R.fail(f"top-level {k}={doc.get(k)} != per-shard sum {total}")
    gaps = sum(len(s["seqno_gaps"]) for s in per)
    if doc.get("seqno_gaps") != gaps:
        R.fail(f"top-level seqno_gaps={doc.get('seqno_gaps')} != "
               f"per-shard gap count {gaps}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("report",
                    help="recovery report JSON from zkv_server "
                         "--recovery-report-out")
    ap.add_argument("--validate", action="store_true",
                    help="enforce accounting invariants; nonzero exit "
                         "on any violation")
    ap.add_argument("--expect-clean", action="store_true",
                    help="with --validate: also fail on any salvaged "
                         "bytes, seqno gaps, or warnings (for runs "
                         "that ended in a clean shutdown)")
    args = ap.parse_args()

    doc = R.load_object(args.report, lambda d: "per_shard" in d,
                        "no per_shard array (not a recovery report)")
    per = doc["per_shard"]

    if args.validate:
        for i, s in enumerate(per):
            check_shard(i, s)
        check_totals(doc)
        if args.expect_clean and (doc["salvaged_bytes"] or
                                  doc["seqno_gaps"] or
                                  any(s["warnings"] for s in per)):
            R.fail("report is not clean: salvaged_bytes="
                   f"{doc['salvaged_bytes']} seqno_gaps="
                   f"{doc['seqno_gaps']}")

    print(f"recovery: {args.report}")
    print(f"  shards: {len(per)}  replayed: {doc['replayed']}  "
          f"skipped: {doc['skipped']}")
    print(f"  salvaged_bytes: {doc['salvaged_bytes']}  "
          f"seqno_gaps: {doc['seqno_gaps']}  "
          f"dropped_records: {doc['dropped_records']}")
    for s in per:
        snap = (f"snapshot {s['snapshot_records']} rec @ "
                f"{s['snapshot_watermark']}"
                if s["snapshot_loaded"] else "no snapshot")
        print(f"  shard {s['shard']}: {snap}, {s['log_segments']} "
              f"segment(s), {s['log_records']} log rec "
              f"({s['replayed']} replayed, {s['skipped']} skipped), "
              f"high water {s['high_water']}")
        for w in s["warnings"]:
            print(f"    warning: {w}")

    if args.validate:
        R.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
