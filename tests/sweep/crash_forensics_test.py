#!/usr/bin/env python3
"""Crash-forensics property test for `intox sweep`.

Pins the dump-on-failure pipeline end to end against the real binary:

  1. A worker that SIGSEGVs mid-point commits a schema-valid
     intox.flightrec.v2 dump into the sweep cache, and the orchestrator's
     stderr names the point by index and banner, and the dump by path.
  2. `intox forensics <dump>` renders a timeline naming the scenario
     and its last recorded decisions.
  3. Re-running the sweep without the crash trigger resumes the healthy
     points from cache and produces a merged report byte-identical to a
     sweep that never crashed (the env trigger stays outside the cache
     key by design).
  4. The merged report and the dump pass scripts/check_metrics_schema.py,
     and the cache holds no file beside records, logs and dumps.

Usage: crash_forensics_test.py <path-to-intox-binary> <check_metrics_schema.py>
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

SCENARIO = "debug.crash"
BASE_ARGS = ["--set", "events=50000", "--sweep", "seed=1:4:1"]
POINTS = 4
CRASH_SEED = "3"


# The work directory: removed when the test passes, kept (and named in
# the FAIL line) when it fails.
WORK = None


def fail(msg):
    kept = f" (work dir kept: {WORK})" if WORK else ""
    print(f"crash_forensics_test: FAIL{kept}: {msg}", file=sys.stderr)
    sys.exit(1)


def run_sweep(intox, cache, out, *, crash=False):
    env = dict(os.environ)
    if crash:
        env["INTOX_DEBUG_CRASH_SEED"] = CRASH_SEED
        env["INTOX_DEBUG_CRASH_MODE"] = "segv"
    else:
        env.pop("INTOX_DEBUG_CRASH_SEED", None)
        env.pop("INTOX_DEBUG_CRASH_MODE", None)
    cmd = [intox, "sweep", SCENARIO, *BASE_ARGS, "--workers", "2",
           "--cache-dir", cache, "--out", out]
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
    global WORK
    tmp = WORK = tempfile.mkdtemp(prefix="intox_crash_forensics_")

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
    res = run_sweep(intox, cache, crash_out, crash=True)
    if res.returncode == 0:
        fail("crashing sweep exited 0")
    # seed=1:4:1 enumerates seeds 1..4, so the crashing seed is point 2.
    failed = re.findall(r"point (\d+) \((.*)\) failed .*\n"
                        r".*point \1 flight recorder dump: (\S+)",
                        res.stderr)
    if [f[:2] for f in failed] != [("2", f"seed={CRASH_SEED}")]:
        fail(f"stderr does not name point 2 (seed={CRASH_SEED}) and its "
             f"dump:\n{res.stderr}")
    dump_path = failed[0][2]
    if not os.path.exists(dump_path):
        fail(f"stderr names dump {dump_path!r}, which does not exist")

    dump = load_json(dump_path)
    if dump.get("schema") != "intox.flightrec.v2":
        fail(f"bad dump schema {dump.get('schema')!r}")
    if dump.get("scenario") != SCENARIO:
        fail(f"dump names scenario {dump.get('scenario')!r}")
    if dump.get("reason") != "signal:SIGSEGV":
        fail(f"dump reason {dump.get('reason')!r}")
    check_schema(checker, dump_path)
    strays = [p for p in os.listdir(cache)
              if not re.fullmatch(r"[0-9a-f]{32}(\.flightrec\.json|\.log|"
                                  r"\.json)", p)]
    if strays:
        fail(f"unexpected files in the sweep cache: {strays}")

    # --- The forensics renderer names the last decisions. ---
    res = subprocess.run([intox, "forensics", dump_path],
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        fail(f"forensics exited {res.returncode}: {res.stderr}")
    for needle in (SCENARIO, "signal:SIGSEGV", "note", "sched.fire"):
        if needle not in res.stdout:
            fail(f"forensics timeline lacks {needle!r}:\n{res.stdout}")

    # --- Resume without the trigger: byte-identical merged report. ---
    res = run_sweep(intox, cache, crash_out)
    if res.returncode != 0:
        fail(f"resumed sweep exited {res.returncode}: {res.stderr}")
    with open(crash_out, "rb") as f:
        resumed_bytes = f.read()
    if resumed_bytes != ref_bytes:
        fail("resumed merged report differs from the crash-free run")
    # The healthy point's dump must not outlive its clean rerun.
    if glob.glob(os.path.join(cache, "*.flightrec.json")):
        fail("stale flight-recorder dump survived a successful rerun")

    shutil.rmtree(tmp)
    print("crash_forensics_test: OK (dump committed, named on stderr, "
          "forensics rendered, resume byte-identical)")


if __name__ == "__main__":
    main()
