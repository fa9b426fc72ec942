#!/usr/bin/env python3
"""Smoke test of fdbench: every workload at tiny sizes, plus the gate self test.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest perfbench/tests/test_smoke.py

For each workload, a measured run (--trace 0) and a traced run (--trace 1)
must pass every correctness gate, exit 0, and emit every metric the
workload names — in the result line and in the REPORT line — as a finite
number (a tail percentile may instead be listed as not reported, when the
tiny run has too few samples for it). A replay with one journal line
dropped must trip the byte-identity gate, which shows the gate can fire.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# The metrics each workload reports (REPORT line), end to end and per layer.
SEARCH_LAYERS = [
    "query.column_stats_ms", "query.distinct_count_t1_ms",
    "query.distinct_count_tN_ms", "query.parallel_speedup", "fd.plan_ms",
    "fd.extend_t1_ms", "fd.extend_tN_ms", "fd.candidates_evaluated",
    "fd.pruned_by_bound", "fd.repairs_found", "fd.useful_eval_ratio",
    "fd.cost_model_ratio", "clustering.rank_eb_ms"]
NAMED = {
    "ingest_churn": {
        "e2e": ["setup_s", "peak_rss_mb", "error_rate", "write_stmts_per_s",
                "write_p50_us", "write_p99_us", "drift_notify_p50_us",
                "drift_notify_p99_us", "recovery_s"],
        "layers": SEARCH_LAYERS + [
            "server.execute_p50_us", "server.execute_p99_us",
            "server.wait_p50_us", "server.wait_p99_us",
            "server.journal_bytes", "server.drift_pushes",
            "sql.parse_p50_us", "sql.insert_p50_us", "sql.delete_p50_us",
            "sql.delete_p99_us", "sql.update_p50_us",
            "sql.rows_scanned_per_match", "relation.compactions",
            "relation.compact_p50_ms", "relation.compact_max_ms",
            "fd.poll_p50_us", "fd.poll_p99_us", "fd.sampled_poll_p50_us",
            "fd.sampled_poll_p99_us", "fd.checks", "fd.drift_events",
            "fd.restore_ms", "storage.checkpoint_ms", "storage.load_ms",
            "storage.snapshot_bytes_per_live_row"],
    },
    "analyst_mixed": {
        "e2e": ["setup_s", "peak_rss_mb", "error_rate", "write_p50_us",
                "write_p99_us", "read_p50_us", "read_p99_us", "reads_per_s"],
        "layers": SEARCH_LAYERS + [
            "server.wait_p50_us", "server.wait_p99_us",
            "sql.count_distinct_p50_ms", "sql.count_distinct_p99_ms",
            "sql.explain_p50_ms", "loadgen.lag_p99_ms"],
    },
    "repair_search": {
        "e2e": ["setup_s", "peak_rss_mb", "error_rate", "repair_s"],
        "layers": SEARCH_LAYERS,
    },
}


def run(workload, trace, *extra, seconds=2):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    report = next((json.loads(l[len("REPORT "):]) for l in lines
                   if l.startswith("REPORT ")), None)
    last = json.loads(lines[-1]) if lines else None
    return p, report, last


class SmokeTest(unittest.TestCase):

    def check_finite(self, name, entry):
        self.assertIsInstance(entry["value"], (int, float), name)
        self.assertTrue(math.isfinite(entry["value"]), name)
        self.assertTrue(entry["unit"], name)

    def check_workload(self, workload, trace):
        p, report, last = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        want = [m["name"] for m in BENCH[key]]
        self.assertEqual(list(last["metrics"]), want)
        for name, entry in last["metrics"].items():
            self.check_finite(name, entry)
        self.assertTrue(all(report["gates"].values()), report["gates"])
        not_reported = " ".join(report["tails_not_reported"])
        for name in NAMED[workload]["e2e" if not trace else "layers"]:
            if name in report["metrics"]:
                self.check_finite(name, report["metrics"][name])
            else:
                self.assertIn(name, not_reported,
                              "%s missing from %s" % (name, workload))
        meta = report["meta"]
        for k in ("git_commit", "nproc", "kernel_tier_detected",
                  "kernel_tier_selected", "seed", "setup_runs",
                  "flush_policy"):
            self.assertIn(k, meta)

    def test_ingest_churn(self):
        self.check_workload("ingest_churn", 0)
        self.check_workload("ingest_churn", 1)

    def test_analyst_mixed(self):
        self.check_workload("analyst_mixed", 0)
        self.check_workload("analyst_mixed", 1)

    def test_repair_search(self):
        self.check_workload("repair_search", 0)
        self.check_workload("repair_search", 1)

    def test_dropped_journal_line_trips_identity_gate(self):
        # Line 10 of the lineitem journal is a committed write statement
        # (lines 0-2 are the lineitem DECLAREs).
        p, report, last = run("ingest_churn", 0, "--drop-journal-line", "10")
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(last["correct"])
        self.assertFalse(report["gates"]["replay_identical"])


if __name__ == "__main__":
    unittest.main()
