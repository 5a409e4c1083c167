#!/usr/bin/env python3
"""Kill-resume property test for `intox sweep`.

Properties pinned here, straight from the orchestrator's contract:

  1. A sweep that is SIGKILLed mid-run and then re-invoked completes,
     and its merged report is byte-identical to the report of a sweep
     that was never interrupted.
  2. The resumed run re-executes only the missing points: the
     sweep.points_executed counter in its BENCH_SWEEP.json equals
     total - (records already committed when the kill landed), and
     sweep.points_cached equals the committed count — zero cached
     points run twice.
  3. A third invocation over the warm cache executes nothing at all.
  4. The worker count never reaches the output: a --workers 1 sweep
     writes the same bytes as the --workers 2 reference. That run takes
     its base knob from a config file whose first line is a
     5,000-character comment, which `intox run --config` accepts and so
     `intox sweep --config` must too.
  5. The merged report and the orchestrator's BENCH_SWEEP.json pass
     scripts/check_metrics_schema.py.
  6. Every sweep exits with the worst `exit` among its merged report's
     records, and a point's `exit` is 1 exactly when its stdout has a
     `[CHECK]` (failed claim) line.
  7. A sweep prints each record's `[sweep] seed=k` line and its stdout,
     in point order, at any worker count, and a record's stdout is what
     `intox run` prints for that point's knobs.
  8. A record depends only on its knob vector: a sweep that reaches
     cached knob vectors through different axes executes nothing and
     writes the same report as on a fresh cache.

The worker is killed with SIGKILL (no cleanup handlers), so this also
exercises the write-temp-then-rename commit: a record path either holds
a complete record or does not exist.

Usage: sweep_resume_test.py <path-to-intox-binary> <check_metrics_schema.py>
"""

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SCENARIO = "sketch.pollution"
# ~40 ms of real work per point, so the kill below lands mid-sweep on
# any machine, fast or slow.
SWEEP_ARGS = ["--sweep", "seed=1:32:1"]
BASE_ARGS = ["--set", "cells=1048576", *SWEEP_ARGS]
POINTS = 32
KILL_AFTER_S = 0.35


# The work directory: removed when the test passes, kept (and named in
# the FAIL line) when it fails.
WORK = None


def fail(msg):
    kept = f" (work dir kept: {WORK})" if WORK else ""
    print(f"sweep_resume_test: FAIL{kept}: {msg}", file=sys.stderr)
    sys.exit(1)


def sweep_cmd(intox, cache, out, metrics=None, knob_args=BASE_ARGS,
              workers="2"):
    cmd = [intox, "sweep", SCENARIO, *knob_args, "--workers", workers,
           "--cache-dir", cache, "--out", out]
    if metrics:
        cmd += ["--metrics-out", metrics]
    return cmd


def run_sweep(intox, cache, out, metrics=None, **kwargs):
    return subprocess.run(sweep_cmd(intox, cache, out, metrics, **kwargs),
                          capture_output=True, text=True, timeout=600)


def check_schema(checker, *paths):
    res = subprocess.run([sys.executable, checker, *paths],
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        fail(f"schema check failed: {res.stdout}{res.stderr}")


def check_exit(res, out, what):
    """A sweep exits with the worst point exit in its merged report."""
    if not os.path.exists(out):
        fail(f"{what} exited {res.returncode} without a merged report: "
             f"{res.stderr}")
    with open(out, "r", encoding="utf-8") as f:
        worst = max(r["exit"] for r in json.load(f)["records"])
    if res.returncode != worst:
        fail(f"{what} exited {res.returncode}, but its worst point exit "
             f"is {worst}: {res.stderr}")


def check_text(res, report_bytes, what):
    """A sweep prints each point's banner line and recorded stdout."""
    records = json.loads(report_bytes)["records"]
    seeds = [r["knobs"]["seed"] for r in records]
    if seeds != [str(k) for k in range(1, POINTS + 1)]:
        fail(f"{what}: records are not in seed order: {seeds}")
    expected = "".join(f"[sweep] seed={r['knobs']['seed']}\n{r['stdout']}"
                       for r in records)
    if res.stdout != expected:
        fail(f"{what}: stdout is not the records' banners and stdout in "
             f"point order")


def read_counter(metrics_path, name):
    with open(metrics_path, "r", encoding="utf-8") as f:
        report = json.load(f)
    counters = report.get("metrics", {}).get("counters", {})
    if name not in counters:
        fail(f"{metrics_path}: counter {name!r} missing")
    return counters[name]


def committed_records(cache):
    # Record files are 32-hex-digit content addresses; worker logs and
    # dumps share the directory but not the pattern.
    return [p for p in glob.glob(os.path.join(cache, "*.json"))
            if len(os.path.basename(p)) == len("0" * 32 + ".json")
            and ".tmp." not in p]


def main():
    if len(sys.argv) != 3:
        fail("usage: sweep_resume_test.py <intox-binary> "
             "<check_metrics_schema.py>")
    intox, checker = sys.argv[1:]
    global WORK
    tmp = WORK = tempfile.mkdtemp(prefix="intox_sweep_resume_")

    clean_cache = os.path.join(tmp, "clean-cache")
    clean_out = os.path.join(tmp, "clean.json")
    kill_cache = os.path.join(tmp, "kill-cache")
    kill_out = os.path.join(tmp, "kill.json")

    # --- Reference: one uninterrupted run. ---
    res = run_sweep(intox, clean_cache, clean_out)
    check_exit(res, clean_out, "clean sweep")
    with open(clean_out, "rb") as f:
        clean_bytes = f.read()
    clean_doc = json.loads(clean_bytes)
    if clean_doc.get("schema") != "intox.sweep_report.v2":
        fail(f"unexpected report schema {clean_doc.get('schema')!r}")
    if clean_doc.get("points") != POINTS:
        fail(f"expected {POINTS} points, got {clean_doc.get('points')}")
    aggregates = clean_doc.get("aggregates")
    if not isinstance(aggregates, dict) or "counters" not in aggregates:
        fail("merged report lacks cross-point aggregates")
    check_schema(checker, clean_out)
    check_text(res, clean_bytes, "--workers 2 sweep")
    for record in clean_doc["records"]:
        failed = any(line.startswith("  [CHECK] ")
                     for line in record["stdout"].splitlines())
        if record["exit"] != int(failed):
            fail(f"point seed={record['knobs']['seed']} exited "
                 f"{record['exit']}, but its stdout "
                 f"{'has' if failed else 'has no'} [CHECK] line")
    single = subprocess.run([intox, "run", SCENARIO, "--set", "cells=1048576",
                             "--set", "seed=1"],
                            capture_output=True, text=True, timeout=600)
    if single.stdout != clean_doc["records"][0]["stdout"]:
        fail("point seed=1's recorded stdout differs from `intox run "
             "--set seed=1`")

    # --- One worker, knobs from a config with a 5,000-char comment. ---
    config = os.path.join(tmp, "long_comment.cfg")
    with open(config, "w", encoding="utf-8") as f:
        f.write("#" + "x" * 4999 + "\ncells=1048576\n")
    serial_out = os.path.join(tmp, "serial.json")
    res = run_sweep(intox, os.path.join(tmp, "serial-cache"), serial_out,
                    knob_args=["--config", config, *SWEEP_ARGS],
                    workers="1")
    check_exit(res, serial_out, "--workers 1 --config sweep")
    with open(serial_out, "rb") as f:
        if f.read() != clean_bytes:
            fail("--workers 1 merged report differs from --workers 2")
    check_text(res, clean_bytes, "--workers 1 sweep")

    # --- Kill a second sweep mid-run (SIGKILL: no atexit, no flush). ---
    proc = subprocess.Popen(sweep_cmd(intox, kill_cache, kill_out),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    time.sleep(KILL_AFTER_S)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    # Reap any worker children the orchestrator left behind before
    # counting records (they may still be committing their point).
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            out = subprocess.run(["pgrep", "-f", "point-record"],
                                 capture_output=True, text=True)
            if out.returncode != 0:
                break
        except FileNotFoundError:
            break
        time.sleep(0.1)

    before = len(committed_records(kill_cache))
    if before >= POINTS:
        print(f"sweep_resume_test: note: all {POINTS} points finished "
              f"before the kill; resume still verified below")
    for path in committed_records(kill_cache):
        # Commit atomicity: anything under the final name parses.
        with open(path, "r", encoding="utf-8") as f:
            record = json.load(f)
        if record.get("schema") != "intox.point_record.v3":
            fail(f"{path}: bad record schema {record.get('schema')!r}")

    # --- Resume. ---
    metrics = os.path.join(tmp, "resume_metrics.json")
    res = run_sweep(intox, kill_cache, kill_out, metrics)
    check_exit(res, kill_out, "resumed sweep")
    with open(kill_out, "rb") as f:
        resumed_bytes = f.read()
    if resumed_bytes != clean_bytes:
        fail("resumed merged report differs from the uninterrupted run")

    check_schema(checker, metrics)
    total = read_counter(metrics, "sweep.points_total")
    if total != POINTS:
        fail(f"resume counted {total} points, expected {POINTS}")
    if read_counter(metrics, "sweep.points_failed") != 0:
        fail("resume reported failed points")
    cached = read_counter(metrics, "sweep.points_cached")
    executed = read_counter(metrics, "sweep.points_executed")
    if cached != before:
        fail(f"resume counted {cached} cached points, but {before} "
             f"records were committed before the kill")
    if executed != POINTS - before:
        fail(f"resume executed {executed} points, expected "
             f"{POINTS - before} (a cached point was re-run, or a "
             f"committed record was ignored)")

    # --- Warm cache: nothing executes. ---
    metrics2 = os.path.join(tmp, "warm_metrics.json")
    res = run_sweep(intox, kill_cache, kill_out, metrics2)
    check_exit(res, kill_out, "warm sweep")
    if read_counter(metrics2, "sweep.points_executed") != 0:
        fail("warm-cache sweep re-executed points")
    if read_counter(metrics2, "sweep.points_cached") != POINTS:
        fail("warm-cache sweep did not report a full cache hit")
    with open(kill_out, "rb") as f:
        if f.read() != clean_bytes:
            fail("warm-cache merged report drifted")

    # --- Cached knob vectors reached through different axes. ---
    other = ["--set", "cells=1048576", "--sweep", "hashes=4:4:1",
             "--sweep", "seed=1:2:1"]
    other_out = os.path.join(tmp, "other.json")
    metrics3 = os.path.join(tmp, "other_metrics.json")
    res = run_sweep(intox, kill_cache, other_out, metrics3, knob_args=other)
    check_exit(res, other_out, "other-axes sweep")
    if read_counter(metrics3, "sweep.points_executed") != 0:
        fail("a sweep over cached knob vectors re-executed points")
    fresh_out = os.path.join(tmp, "other_fresh.json")
    res = run_sweep(intox, os.path.join(tmp, "other-cache"), fresh_out,
                    knob_args=other)
    check_exit(res, fresh_out, "other-axes sweep on a fresh cache")
    with open(other_out, "rb") as warm, open(fresh_out, "rb") as fresh:
        if warm.read() != fresh.read():
            fail("a sweep over cached knob vectors wrote a report that "
                 "differs from the same sweep on a fresh cache")

    shutil.rmtree(tmp)
    print(f"sweep_resume_test: OK ({before}/{POINTS} points survived "
          f"the kill; resume executed {executed}, re-executed 0)")


if __name__ == "__main__":
    main()
