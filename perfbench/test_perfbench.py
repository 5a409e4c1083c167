#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_perfbench.py            # from a checkout root
    INTOX_BIN=build/intox python3 perfbench/test_perfbench.py

Covers the strict CLI, the equivalence of every rebuilt workload with its
library entry point, the JSON result contract, and the refusal to run
without the simulator sources. With INTOX_BIN set to a built `intox`
driver, the rebuilt blink-hijack and pcc-fleet workloads are also checked
against `intox run blink.e2e` and `intox run pcc.fleet` output.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (perfbench/run.py: builds the harness)

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def harness(*args):
    return subprocess.run([run.HARNESS, *args], capture_output=True,
                          text=True, check=False)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        eq = harness("--equivalence")
        cls.equivalence = eq

    def assert_usage_error(self, *args):
        proc = harness(*args)
        self.assertEqual(proc.returncode, 2, args)
        self.assertEqual(proc.stdout, "", args)
        self.assertEqual(len(proc.stderr.splitlines()), 1, proc.stderr)
        self.assertTrue(proc.stderr.startswith("perfbench: "), proc.stderr)

    def test_cli_is_strict(self):
        ok = ["--workload", "blink-hijack", "--seed", "1"]
        self.assert_usage_error("--workload", "blink-e2e", "--seed", "1")
        self.assert_usage_error("--workload", "blink-hijack")
        for seed in ["-1", "abc", "1.5", "", "0x10", "99999999999999999999"]:
            self.assert_usage_error("--workload", "blink-hijack", "--seed",
                                    seed)
        self.assert_usage_error(*ok, "--trace", "2")
        self.assert_usage_error(*ok, "--seconds", "0")
        self.assert_usage_error(*ok, "--seed", "2")
        self.assert_usage_error(*ok, "--bogus", "1")
        self.assert_usage_error(*ok, "--seconds")
        self.assert_usage_error("--equivalence", "--seed", "1")

    def test_rebuilt_workloads_match_the_library(self):
        eq = self.equivalence
        self.assertEqual(eq.returncode, 0, eq.stdout + eq.stderr)
        verdicts = [l for l in eq.stdout.splitlines()
                    if l.startswith(("equal", "MISMATCH"))]
        self.assertEqual(len(verdicts), 7, eq.stdout)
        self.assertTrue(all(v.startswith("equal") for v in verdicts),
                        eq.stdout)

    @unittest.skipUnless(os.environ.get("INTOX_BIN"), "INTOX_BIN not set")
    def test_rebuilt_workloads_match_intox(self):
        intox = os.environ["INTOX_BIN"]
        e2e = subprocess.run([intox, "run", "blink.e2e"], capture_output=True,
                             text=True, check=True)
        pkts = json.loads(e2e.stderr.splitlines()[0])["trials"]
        when = re.search(r"hijack at:\s+([\d.]+) s", e2e.stdout).group(1)
        share = re.search(r"hijacked share:\s+([\d.]+)%", e2e.stdout).group(1)
        self.assertIn("blink-hijack seed=2024 pkts=%d hijack_at=%s share=%s"
                      % (pkts, when, share), self.equivalence.stdout)

        fleet = subprocess.run([intox, "run", "pcc.fleet"],
                               capture_output=True, text=True, check=True)
        row = re.search(r"^\s+48 \|\s+\S+\s+([\d.]+)% \|\s+\S+\s+([\d.]+)%",
                        fleet.stdout, re.M)
        ours = dict(re.findall(r"pcc-fleet seed=9 (\w+) delivered_cv=([\d.]+)",
                               self.equivalence.stdout))
        self.assertEqual("%.2f" % (100 * float(ours["clean"])), row.group(1))
        self.assertEqual("%.2f" % (100 * float(ours["attacked"])),
                         row.group(2))

    def check_result(self, trace, names):
        proc = harness("--workload", "blink-hijack", "--seed", "7",
                       "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)
        self.assertEqual(set(result["metrics"]), names)
        for metric in result["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})
        return result["metrics"]

    def test_untraced_run_reports_the_end_to_end_metrics(self):
        metrics = self.check_result(0, {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertGreater(metrics[m["name"]]["value"], 0)
        self.assertEqual(metrics["check_pass_ratio"]["value"], 1)

    def test_traced_run_reports_the_per_layer_metrics(self):
        metrics = self.check_result(1, {m["name"] for m in SPEC["per_layer"]})
        for m in SPEC["per_layer"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
        # blink-hijack runs the scheduler, link, switch, Blink, trafficgen
        # and RNG layers, and neither the runner nor PCC.
        for name in ["sim.sched.self_s", "sim.link.transmit_s",
                     "dataplane.receive_s", "blink.process_s",
                     "trafficgen.populate_s", "sim.rng.forks"]:
            self.assertGreater(metrics[name]["value"], 0, name)
        for name in ["sim.runner.trial_s_max", "pcc.on_ack_s",
                     "pcc.decisions"]:
            self.assertEqual(metrics[name]["value"], 0, name)
        self.assertEqual(metrics["trafficgen.pkts"]["value"],
                         metrics["sim.link.transmit_calls"]["value"])

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "blink-hijack", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, check=False,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
