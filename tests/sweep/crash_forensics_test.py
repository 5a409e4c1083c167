#!/usr/bin/env python3
"""Crash-forensics property test for `intox sweep`.

Pins the dump-on-failure pipeline end to end against the real binary:

  1. A worker that SIGSEGVs mid-point commits a schema-valid
     intox.flightrec.v2 dump into the sweep cache, and the orchestrator
     writes an intox.sweep_failure.v1 sidecar referencing it and naming
     the point by index and banner.
  2. `intox forensics <dump>` renders a timeline naming the scenario
     and its last recorded decisions.
  3. Re-running the sweep without the crash trigger resumes the healthy
     points from cache and produces a merged report byte-identical to a
     sweep that never crashed (the env trigger stays outside the cache
     key by design).
  4. With --trace-out, the orchestrator merges its own Chrome trace with
     every surviving worker's into one file with per-pid lanes.
  5. The merged report, the failure sidecar, the dump and both Chrome
     traces pass scripts/check_metrics_schema.py.

Usage: crash_forensics_test.py <path-to-intox-binary> <check_metrics_schema.py>
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

SCENARIO = "debug.crash"
BASE_ARGS = ["--set", "events=50000", "--sweep", "seed=1:4:1"]
POINTS = 4
CRASH_SEED = "3"


def fail(msg):
    print(f"crash_forensics_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_sweep(intox, cache, out, *, crash=False, trace=None):
    env = dict(os.environ)
    if crash:
        env["INTOX_DEBUG_CRASH_SEED"] = CRASH_SEED
        env["INTOX_DEBUG_CRASH_MODE"] = "segv"
    else:
        env.pop("INTOX_DEBUG_CRASH_SEED", None)
        env.pop("INTOX_DEBUG_CRASH_MODE", None)
    cmd = [intox, "sweep", SCENARIO, *BASE_ARGS, "--workers", "2",
           "--cache-dir", cache, "--out", out]
    if trace:
        cmd += ["--trace-out", trace]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=600)


def check_schema(checker, *args):
    res = subprocess.run([sys.executable, checker, *args],
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        fail(f"schema check failed: {res.stdout}{res.stderr}")


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        fail("usage: crash_forensics_test.py <intox-binary> "
             "<check_metrics_schema.py>")
    intox, checker = sys.argv[1:]
    tmp = tempfile.mkdtemp(prefix="intox_crash_forensics_")

    # --- Reference: a sweep that never crashes. ---
    ref_out = os.path.join(tmp, "ref.json")
    res = run_sweep(intox, os.path.join(tmp, "ref-cache"), ref_out)
    if res.returncode != 0:
        fail(f"reference sweep exited {res.returncode}: {res.stderr}")
    with open(ref_out, "rb") as f:
        ref_bytes = f.read()
    check_schema(checker, ref_out)

    # --- Crash run: seed 3's worker segfaults at the midpoint. ---
    cache = os.path.join(tmp, "crash-cache")
    crash_out = os.path.join(tmp, "crash.json")
    trace_out = os.path.join(tmp, "session_trace.json")
    res = run_sweep(intox, cache, crash_out, crash=True, trace=trace_out)
    if res.returncode == 0:
        fail("crashing sweep exited 0")
    if "flight recorder dump" not in res.stderr:
        fail(f"stderr does not mention the dump:\n{res.stderr}")

    sidecars = glob.glob(os.path.join(cache, "*.fail.json"))
    if len(sidecars) != 1:
        fail(f"expected exactly 1 failure sidecar, found {sidecars}")
    sidecar = load_json(sidecars[0])
    if sidecar.get("schema") != "intox.sweep_failure.v1":
        fail(f"bad sidecar schema {sidecar.get('schema')!r}")
    if sidecar.get("scenario") != SCENARIO:
        fail(f"sidecar names scenario {sidecar.get('scenario')!r}")
    # seed=1:4:1 enumerates seeds 1..4, so the crashing seed is point 2.
    if sidecar.get("point") != 2:
        fail(f"sidecar names point {sidecar.get('point')!r}, expected 2")
    if sidecar.get("banner") != f"seed={CRASH_SEED}":
        fail(f"sidecar banner {sidecar.get('banner')!r}, "
             f"expected 'seed={CRASH_SEED}'")
    dump_path = sidecar.get("flightrec")
    if not dump_path or not os.path.exists(dump_path):
        fail(f"sidecar flightrec reference {dump_path!r} does not exist")

    dump = load_json(dump_path)
    if dump.get("schema") != "intox.flightrec.v2":
        fail(f"bad dump schema {dump.get('schema')!r}")
    if dump.get("scenario") != SCENARIO:
        fail(f"dump names scenario {dump.get('scenario')!r}")
    if dump.get("reason") != "signal:SIGSEGV":
        fail(f"dump reason {dump.get('reason')!r}")
    check_schema(checker, sidecars[0], dump_path)

    # --- The forensics renderer names the last decisions. ---
    res = subprocess.run([intox, "forensics", dump_path],
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        fail(f"forensics exited {res.returncode}: {res.stderr}")
    for needle in (SCENARIO, "signal:SIGSEGV", "note", "sched.fire"):
        if needle not in res.stdout:
            fail(f"forensics timeline lacks {needle!r}:\n{res.stdout}")

    # --- Forensics Chrome-trace rendering parses. ---
    fr_trace = os.path.join(tmp, "dump_trace.json")
    res = subprocess.run([intox, "forensics", dump_path, "--trace-out",
                          fr_trace], capture_output=True, text=True,
                         timeout=120)
    if res.returncode != 0:
        fail(f"forensics --trace-out exited {res.returncode}: {res.stderr}")
    events = load_json(fr_trace).get("traceEvents")
    if not events:
        fail("forensics trace has no events")
    check_schema(checker, "--trace", fr_trace)

    # --- Merged session trace: orchestrator + surviving workers. ---
    check_schema(checker, "--trace", trace_out)
    session = load_json(trace_out)
    events = session.get("traceEvents")
    if not events:
        fail("merged session trace has no events")
    pids = {e.get("pid") for e in events}
    if len(pids) < 2:
        fail(f"expected per-pid lanes from at least 2 processes, "
             f"got pids {pids}")
    if not any(e.get("ph") == "M" and e.get("name") == "process_name"
               for e in events):
        fail("merged session trace lacks process_name metadata")

    # --- Resume without the trigger: byte-identical merged report. ---
    res = run_sweep(intox, cache, crash_out)
    if res.returncode != 0:
        fail(f"resumed sweep exited {res.returncode}: {res.stderr}")
    with open(crash_out, "rb") as f:
        resumed_bytes = f.read()
    if resumed_bytes != ref_bytes:
        fail("resumed merged report differs from the crash-free run")
    # The healthy point's sidecar/dump must not outlive its clean rerun.
    if glob.glob(os.path.join(cache, "*.fail.json")):
        fail("failure sidecar survived a successful rerun")
    if glob.glob(os.path.join(cache, "*.flightrec.json")):
        fail("stale flight-recorder dump survived a successful rerun")

    print("crash_forensics_test: OK (dump committed, sidecar linked, "
          "forensics rendered, resume byte-identical)")


if __name__ == "__main__":
    main()
