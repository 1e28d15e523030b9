"""Exit protocol shared by the scripts/*_report.py validators and
scripts/perf_gate.py.

Each report script reads one JSON artifact, prints a summary on stdout
and, under ``--validate``, exits 1 with ``<tool>: FAIL: <reason>`` lines
on stderr for any violated invariant, or prints ``<tool>: OK``. The
perf gate reads its baseline and reports its verdict the same way.

Usage (from a script in this directory):

  from report_common import Reporter
  R = Reporter("slo_report")
  doc = R.load_object(path, lambda d: isinstance(d.get("runs"), list),
                      "no runs array (not a bench JSON report)")
  ...
  R.finish(violations)
"""

import json
import sys


class Reporter:
    def __init__(self, tool):
        self.tool = tool

    def fail(self, msg):
        """Report one violation and exit 1."""
        print(f"{self.tool}: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)

    def load_object(self, path, is_report=lambda doc: True,
                    not_report="not a JSON object"):
        """Parse the JSON file at path. Fail, naming the file, unless
        it holds an object that is_report accepts; not_report says
        what is wrong with one it rejects."""
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            self.fail(f"{path}: {e}")
        if not isinstance(doc, dict) or not is_report(doc):
            self.fail(f"{path}: {not_report}")
        return doc

    def finish(self, violations=()):
        """Exit 1 listing every violation, or print the OK line."""
        if violations:
            for v in violations:
                print(f"{self.tool}: FAIL: {v}", file=sys.stderr)
            sys.exit(1)
        print(f"{self.tool}: OK")
