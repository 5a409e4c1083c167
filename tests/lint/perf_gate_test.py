#!/usr/bin/env python3
"""check_perf_gate.py must never un-guard a floor silently.

Regression under test: `--update` used to print "dropped (not in ...)"
for a baseline-named sweep missing from the fresh reports and exit 0 —
the documented re-baseline recipe would then commit a baseline without
the floor, and the gate never checked that sweep again. Missing sweeps
are now a hard failure in both modes, with an explicit --allow-drop
escape hatch for deliberate benchmark deletions. Near a floor the
printed numbers must tell a pass from a failure: rounded to whole
numbers, a failing 5.85 and a passing 5.95 both printed as 6. A report
with one sweep per benchmark repetition is judged on their median, not
on whichever repetition came last. `--update` keeps significant digits:
rounded to one decimal place, a 0.0412 trials/s sweep was stored as 0.0,
which `check` then refused as a bad baseline.

Usage: perf_gate_test.py <path-to-check_perf_gate.py>
"""

import json
import os
import subprocess
import sys
import tempfile

def fail(msg):
    print(f"perf_gate_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def gate(script, *args):
    return subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True, timeout=60)


def setup(tmp, baseline_sweeps, report_sweeps):
    baselines = os.path.join(tmp, "baselines")
    reports = os.path.join(tmp, "reports")
    os.makedirs(baselines, exist_ok=True)
    os.makedirs(reports, exist_ok=True)
    write_json(os.path.join(baselines, "core.json"), {
        "schema": "intox.perf_baseline.v1",
        "family": "CORE",
        "tolerance": 0.5,
        "sweeps": baseline_sweeps,
    })
    write_json(os.path.join(reports, "BENCH_CORE.json"), {
        "schema": "intox.bench_report.v2",
        "family": "CORE",
        "threads_requested": 0,
        "sweeps": [{"sweep": name, "trials": 10, "threads": 1,
                    "wall_s": 1.0, "trials_per_s": tps}
                   for name, runs in report_sweeps.items()
                   for tps in (runs if isinstance(runs, list) else [runs])],
    })
    return baselines, reports


def main():
    if len(sys.argv) != 2:
        fail("usage: perf_gate_test.py <check_perf_gate.py>")
    script = sys.argv[1]

    # Healthy pass: floors hold.
    with tempfile.TemporaryDirectory() as tmp:
        baselines, reports = setup(
            tmp, {"sched": {"trials_per_s": 100.0}}, {"sched": 120.0})
        res = gate(script, "--reports", reports, "--baselines", baselines)
        if res.returncode != 0:
            fail(f"healthy check failed: {res.stderr}")

    # Regression detection still works.
    with tempfile.TemporaryDirectory() as tmp:
        baselines, reports = setup(
            tmp, {"sched": {"trials_per_s": 100.0}}, {"sched": 10.0})
        res = gate(script, "--reports", reports, "--baselines", baselines)
        if res.returncode == 0:
            fail("a 10x throughput drop passed the gate")

    # Near a floor the printed numbers tell a pass from a failure:
    # baseline 11.8 puts the floor at 5.9, so 5.85 fails and 5.95 passes.
    printed = {}
    for tps, want in ((5.85, 1), (5.95, 0)):
        with tempfile.TemporaryDirectory() as tmp:
            baselines, reports = setup(
                tmp, {"sched": {"trials_per_s": 11.8}}, {"sched": tps})
            res = gate(script, "--reports", reports, "--baselines",
                       baselines)
            if res.returncode != want:
                fail(f"{tps} trials/s against floor 5.9 exited "
                     f"{res.returncode}, expected {want}")
            printed[tps] = [line.strip() for line in res.stdout.splitlines()
                            if "CORE/sched" in line]
    for tps, verdict in ((5.85, "REGRESSION"), (5.95, "ok")):
        want = (f"CORE/sched: {tps:.2f} trials/s (baseline 11.80, "
                f"floor 5.90) {verdict}")
        if printed[tps] != [want]:
            fail(f"printed {printed[tps]!r}, expected [{want!r}]")

    # Repetitions: the median decides. The last of [60, 70, 55, 80, 40]
    # is under the floor of 50 but the median, 60, is not; the last of
    # [40, 70, 30, 45, 90] clears it but the median, 45, does not.
    for runs, want, median in (([60.0, 70.0, 55.0, 80.0, 40.0], 0, 60.0),
                               ([40.0, 70.0, 30.0, 45.0, 90.0], 1, 45.0)):
        with tempfile.TemporaryDirectory() as tmp:
            baselines, reports = setup(
                tmp, {"sched": {"trials_per_s": 100.0}}, {"sched": runs})
            res = gate(script, "--reports", reports, "--baselines",
                       baselines)
            if res.returncode != want:
                fail(f"repetitions {runs} against floor 50 exited "
                     f"{res.returncode}, expected {want}")
            if f"CORE/sched: {median:.2f} trials/s" not in res.stdout:
                fail(f"repetitions {runs}: median {median:.2f} not "
                     f"printed in {res.stdout!r}")

    # check: a baseline-named sweep absent from the report is a failure.
    with tempfile.TemporaryDirectory() as tmp:
        baselines, reports = setup(
            tmp, {"sched": {"trials_per_s": 100.0}}, {"other": 500.0})
        res = gate(script, "--reports", reports, "--baselines", baselines)
        if res.returncode == 0:
            fail("check passed with the baseline sweep missing from "
                 "the report")

    # check: a baseline that guards nothing is a failure, not a no-op.
    with tempfile.TemporaryDirectory() as tmp:
        baselines, reports = setup(tmp, {}, {"sched": 100.0})
        res = gate(script, "--reports", reports, "--baselines", baselines)
        if res.returncode == 0:
            fail("an empty baseline (guards no sweeps) passed the gate")

    # --update: missing baseline sweep must hard-fail...
    with tempfile.TemporaryDirectory() as tmp:
        baselines, reports = setup(
            tmp, {"sched": {"trials_per_s": 100.0}}, {"other": 500.0})
        baseline_path = os.path.join(baselines, "core.json")
        with open(baseline_path, encoding="utf-8") as f:
            before = f.read()
        res = gate(script, "--reports", reports, "--baselines", baselines,
                   "--update")
        if res.returncode == 0:
            fail("--update silently dropped a baseline sweep (the "
                 "un-guarded-floor regression)")
        with open(baseline_path, encoding="utf-8") as f:
            if f.read() != before:
                fail("--update rewrote the baseline despite failing")

        # ...unless the drop is explicit.
        res = gate(script, "--reports", reports, "--baselines", baselines,
                   "--update", "--allow-drop", "sched")
        if res.returncode != 0:
            fail(f"--update --allow-drop failed: {res.stderr}")
        with open(baseline_path, encoding="utf-8") as f:
            rewritten = json.load(f)
        if "sched" in rewritten["sweeps"]:
            fail("--allow-drop kept the dropped sweep")
        if rewritten["sweeps"]["other"]["trials_per_s"] != 500.0:
            fail("--update did not record the fresh throughput")

    # --update then check on a slow sweep: the baseline keeps the rate.
    with tempfile.TemporaryDirectory() as tmp:
        baselines, reports = setup(
            tmp, {"slow": {"trials_per_s": 1.0}}, {"slow": 0.0412})
        res = gate(script, "--reports", reports, "--baselines", baselines,
                   "--update")
        if res.returncode != 0:
            fail(f"--update on a 0.0412 trials/s sweep failed: {res.stderr}")
        with open(os.path.join(baselines, "core.json"),
                  encoding="utf-8") as f:
            stored = json.load(f)["sweeps"]["slow"]["trials_per_s"]
        if stored != 0.0412:
            fail(f"--update stored 0.0412 trials/s as {stored!r}")
        res = gate(script, "--reports", reports, "--baselines", baselines)
        if res.returncode != 0:
            fail(f"check after --update on a slow sweep failed: "
                 f"{res.stderr}")

    print("perf_gate_test: OK")


if __name__ == "__main__":
    main()
