#!/usr/bin/env python3
"""The paper's comparison at equal frame budgets, through the benchmark.

Runs the driver's traced run with the policy overridden and asserts that
LRU-2 needs fewer disk reads per operation than LRU on oltp-zipf (index
pages told apart from record pages, Example 1.1) and on scan-mix (scan
resistance, Example 1.2). The adaptive meta-policy is run alongside and
only reported. Run from the root of the repository:

    python3 perfbench/test_policy_comparison.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POLICIES = ("LRU", "LRU-2", "adaptive:lruk2+arc+2q")


def layer_metrics(workload, policy, seed=7):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1",
         "--policy", policy],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s/%s: output check failed" % (workload, policy))
    return {k: v["value"] for k, v in result["metrics"].items()}


class PolicyComparisonTest(unittest.TestCase):
    def compare(self, workload):
        reads = {}
        for policy in POLICIES:
            metrics = layer_metrics(workload, policy)
            reads[policy] = metrics["storage.reads_per_op"]
            print("%-10s %-22s disk_reads_per_op=%.4f hit_ratio=%.4f" %
                  (workload, policy, reads[policy],
                   metrics["bufferpool.hit_ratio"]), file=sys.stderr)
        self.assertLess(reads["LRU-2"], reads["LRU"])

    def test_oltp_zipf(self):
        self.compare("oltp-zipf")

    def test_scan_mix(self):
        self.compare("scan-mix")


if __name__ == "__main__":
    unittest.main()
