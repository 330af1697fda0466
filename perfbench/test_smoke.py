#!/usr/bin/env python3
"""Smoke test of the benchmark, at tiny sizes of every workload.

Run from the root of a checkout:

    python3 perfbench/test_smoke.py

For each workload in BENCHMARK.json it runs perfbench/run.py --smoke once
untraced and once traced, and checks that
- every output check passed;
- exactly the end-to-end (untraced) or per-layer (traced) metrics named
  in BENCHMARK.json are printed, each with its unit;
- the traced pass's self times, less the benchmark's own bookkeeping
  between machines (span bench.account), sum to the pass's wall time as
  the segment timer measured it, within 1%;
- time attributed to no layer span (the self time of bench.pass and of
  the clients' own code) stays under 1% of that wall time, so that a
  layer call without a span fails the test.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SEED = 3


def bench(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if r.returncode != 0:
        raise AssertionError("run.py exited with %d" % r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


def span_log(workload):
    """The traced pass's header fields and self ns per span name."""
    path = os.path.join(ROOT, ".perfbench", "trace-%s-%d.tsv" % (workload, SEED))
    header, self_ns = {}, {}
    with open(path) as f:
        for line in f:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("\t")
                header[key] = value
            elif line.startswith("name\t"):
                break
        for line in f:
            if not line.strip():
                break
            fields = line.split("\t")
            self_ns[fields[0]] = int(fields[2])
    return header, self_ns


class Smoke(unittest.TestCase):
    def check_result(self, result, wanted):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = result["metrics"]
        self.assertEqual(sorted(printed), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float), m["name"])

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = bench(w["name"], 0)
                self.check_result(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(bench(w["name"], 1), SPEC["per_layer"])
                header, self_ns = span_log(w["name"])
                wall = int(header["segments_ns"])
                self.assertGreater(wall, 0)
                attributed = sum(self_ns.values()) - self_ns["bench.account"]
                self.assertLessEqual(abs(attributed - wall), 0.01 * wall)
                unattributed = self_ns["bench.pass"] + self_ns.get("(client)", 0)
                self.assertLess(unattributed, 0.01 * wall)


if __name__ == "__main__":
    unittest.main()
