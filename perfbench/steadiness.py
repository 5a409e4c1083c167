#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

    python3 perfbench/steadiness.py [--workloads blink-hijack,pcc-fleet]
        [--seeds 10] [--out medians.json] [--compare medians.json]

Runs every chosen workload once per seed 1..--seeds with --trace 0 and
BENCHMARK.json's run_seconds, and reports, for each end-to-end metric,
the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. A spread
above the metric's bound fails; one above a third of the bound is
flagged. --compare fails any metric whose median is worse than the saved
one by more than its bound. Then it runs --trace 1 twice on seed 1 and
fails unless the exact counts below are identical. Run from the root of
a checkout; exits 0 only if every check passes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_COUNTS = ["sim.sched.events", "trafficgen.pkts", "sim.rng.forks",
                "sim.link.drops", "blink.reroutes", "pcc.decisions"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steadiness: %s failed (exit %d):\n%s" %
                 (" ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("steadiness: %s seed %d reported failures:\n%s" %
                 (workload, seed, proc.stderr))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    saved = json.load(open(args.compare)) if args.compare else {}
    medians = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0)
                for s in range(1, args.seeds + 1)]
        medians[workload] = {}
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians[workload][m["name"]] = med
            verdict = "steady"
            if spread > m["bound"]:
                verdict, ok = "FAIL", False
            elif spread > m["bound"] / 3:
                verdict = "wide"
            line = "%-12s %-16s median %-14.6g spread %6.3f (bound %.2f) %s" % (
                workload, m["name"], med, spread, m["bound"], verdict)
            before = saved.get(workload, {}).get(m["name"])
            if before:
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                line += "  vs saved %+.3f" % worse
                if worse > m["bound"]:
                    line, ok = line + " FAIL", False
            print(line, flush=True)

        traced = [run_once(workload, 1, seconds, 1) for _ in range(2)]
        for name in EXACT_COUNTS:
            same = traced[0][name] == traced[1][name]
            ok &= same
            print("%-12s %-16s exact count %s %s" % (
                workload, name, traced[0][name],
                "repeats" if same else "DIFFERS: %s" % traced[1][name]),
                flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(medians, f, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
