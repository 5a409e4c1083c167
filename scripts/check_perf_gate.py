#!/usr/bin/env python3
"""Throughput regression gate over intox.bench_report.v3 run reports.

Compares the `trials_per_s` of every sweep named in a committed baseline
(bench/baselines/*.json) against a freshly produced BENCH_<family>.json
and fails when throughput drops below `baseline * tolerance`. The gate
guards the hot-path engine (timing-wheel scheduler, the links' in-flight
packet rings, SoA flow state, O(1) Rng forks): an accidental O(log n) or
per-event allocation sneaking back in shows up here, not weeks later in a slow
experiment. A report may carry several sweeps of one name (one per
google-benchmark repetition); the gate reads their median.

Usage:
    scripts/check_perf_gate.py --reports reports [--baselines bench/baselines]
    scripts/check_perf_gate.py --reports reports --update

The tolerance is stored *in each baseline file* (default 0.5: fail below
half the recorded throughput). The band is deliberately wide — CI
machines are slower and noisier than the box that recorded the baseline;
the gate exists to catch order-of-magnitude regressions, not 10% jitter.
Sweeps present in a report but absent from the baseline are ignored (new
benchmarks do not need a baseline to land, they get one on the next
re-baseline). The reverse direction is never silent: a baseline-named
sweep missing from the fresh reports fails both `check` and `--update`
— dropping a floor requires an explicit `--allow-drop NAME`.

Re-baselining (after a deliberate perf change or a runner upgrade):
    ./build/bench/bench_micro_core \
        --benchmark_filter='Scheduler|LinkDelivery|Rng' \
        --benchmark_repetitions=5 \
        --metrics-out reports/BENCH_MICRO.json
    ./build/intox run blink.e2e \
        --metrics-out reports/BENCH_BLINK-E2E.json > /dev/null
    ./build/intox run blink.fig2 --threads 1 --set runs=2 \
        --metrics-out reports/BENCH_FIG2.json > /dev/null
    ./build/intox run pcc.fleet --threads 1 --set duration_s=10 \
        --metrics-out reports/BENCH_PCC-FLEET.json > /dev/null
    ./build/intox run pcc.oscillation --threads 1 \
        --metrics-out reports/BENCH_PCC-OSC.json > /dev/null
    scripts/check_perf_gate.py --reports reports --update
then commit the rewritten bench/baselines/*.json with a sentence in the
commit message saying why the floor moved.

Stdlib-only on purpose, same as check_metrics_schema.py.
"""

import argparse
import json
import os
import statistics
import sys

BASELINE_SCHEMA = "intox.perf_baseline.v1"
REPORT_SCHEMA = "intox.bench_report.v3"
DEFAULT_TOLERANCE = 0.5


def fail(msg):
    print(f"check_perf_gate: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def report_sweeps(report, path):
    """Maps each sweep name to the median trials_per_s of its entries."""
    if report.get("schema") != REPORT_SCHEMA:
        fail(f"{path}: schema is {report.get('schema')!r}, "
             f"expected {REPORT_SCHEMA!r}")
    runs = {}
    for sweep in report.get("sweeps", []):
        name = sweep.get("sweep")
        tps = sweep.get("trials_per_s")
        if not isinstance(name, str) or not isinstance(tps, (int, float)):
            fail(f"{path}: malformed sweep entry {sweep!r}")
        runs.setdefault(name, []).append(float(tps))
    return {name: statistics.median(tps) for name, tps in runs.items()}


def find_report(reports_dir, family):
    path = os.path.join(reports_dir, f"BENCH_{family}.json")
    if not os.path.isfile(path):
        fail(f"missing run report {path} (baseline family {family!r}; "
             f"did the bench step run?)")
    return path


def check(baseline_path, reports_dir):
    baseline = load_json(baseline_path)
    if baseline.get("schema") != BASELINE_SCHEMA:
        fail(f"{baseline_path}: schema is {baseline.get('schema')!r}, "
             f"expected {BASELINE_SCHEMA!r}")
    family = baseline.get("family")
    tolerance = baseline.get("tolerance", DEFAULT_TOLERANCE)
    if not isinstance(family, str) or not family:
        fail(f"{baseline_path}: missing family")
    if not isinstance(tolerance, (int, float)) or not 0 < tolerance <= 1:
        fail(f"{baseline_path}: tolerance must be in (0, 1], "
             f"got {tolerance!r}")

    report_path = find_report(reports_dir, family)
    current = report_sweeps(load_json(report_path), report_path)

    if not baseline.get("sweeps"):
        fail(f"{baseline_path}: baseline guards no sweeps (an empty "
             f"'sweeps' object gates nothing; delete the file or "
             f"re-baseline)")

    failures = []
    for name, entry in sorted(baseline.get("sweeps", {}).items()):
        floor = entry.get("trials_per_s")
        if not isinstance(floor, (int, float)) or floor <= 0:
            fail(f"{baseline_path}: sweep {name!r} has bad trials_per_s "
                 f"{floor!r}")
        if name not in current:
            failures.append(f"  {name}: missing from {report_path} "
                            f"(benchmark deleted or filtered out?)")
            continue
        need = floor * tolerance
        got = current[name]
        verdict = "ok" if got >= need else "REGRESSION"
        print(f"  {family}/{name}: {got:,.2f} trials/s "
              f"(baseline {floor:,.2f}, floor {need:,.2f}) {verdict}")
        if got < need:
            failures.append(
                f"  {name}: {got:,.2f} trials/s < floor {need:,.2f} "
                f"({tolerance:.0%} of baseline {floor:,.2f})")
    return failures


def update(baseline_path, reports_dir, allow_drop):
    baseline = load_json(baseline_path)
    family = baseline.get("family")
    report_path = find_report(reports_dir, family)
    current = report_sweeps(load_json(report_path), report_path)
    names = set(baseline.get("sweeps", {})) | set(current)
    sweeps = {}
    for name in sorted(names):
        if name not in current:
            # A baseline-named sweep that vanished from the fresh report
            # is a hard error: silently dropping it here would un-guard
            # the floor forever (the gate only checks names the baseline
            # records). Deleting a benchmark on purpose requires saying
            # so with --allow-drop.
            if name in allow_drop:
                print(f"  {family}/{name}: dropped (--allow-drop)")
                continue
            fail(f"{baseline_path}: sweep {name!r} is in the baseline but "
                 f"not in {report_path}; a silent drop would un-guard its "
                 f"floor. Re-run the bench that produces it, or pass "
                 f"--allow-drop {name} if it was deleted on purpose.")
        # Significant digits, not decimal places: a slow sweep keeps its
        # precision, and any positive rate stays positive.
        sweeps[name] = {"trials_per_s": float(f"{current[name]:.4g}")}
        print(f"  {family}/{name}: baseline := {current[name]:,.2f} trials/s")
    baseline["schema"] = BASELINE_SCHEMA
    baseline["sweeps"] = sweeps
    baseline.setdefault("tolerance", DEFAULT_TOLERANCE)
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(
        description="throughput gate over BENCH_*.json run reports")
    parser.add_argument("--reports", required=True,
                        help="directory holding fresh BENCH_<family>.json")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed baseline files")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the fresh reports "
                             "instead of checking")
    parser.add_argument("--allow-drop", action="append", default=[],
                        metavar="SWEEP",
                        help="with --update: permit removing this "
                             "baseline sweep when it is absent from the "
                             "fresh reports (repeatable)")
    args = parser.parse_args()

    baseline_files = sorted(
        os.path.join(args.baselines, f)
        for f in os.listdir(args.baselines) if f.endswith(".json"))
    if not baseline_files:
        fail(f"no baseline files in {args.baselines}")

    all_failures = []
    for path in baseline_files:
        print(f"{path}:")
        if args.update:
            update(path, args.reports, set(args.allow_drop))
        else:
            all_failures += check(path, args.reports)
    if all_failures:
        print("throughput regressions detected:", file=sys.stderr)
        for line in all_failures:
            print(line, file=sys.stderr)
        print("(deliberate change? see the re-baseline recipe in this "
              "script's docstring)", file=sys.stderr)
        sys.exit(1)
    if not args.update:
        print("perf gate: all sweeps at or above their floors")


if __name__ == "__main__":
    main()
