#!/usr/bin/env python3
"""Builds the benchmark harness from source, then runs one workload.

    python3 perfbench/run.py --workload blink-hijack --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The harness is built (Release) into
.bench_build/ on first use; later runs only re-check it. The last line of
stdout is the harness's JSON result. With --trace 1 the sampled spans go
to .bench_build/spans-<workload>.json. Exit codes: 0 ran, 1 build or run
failure, 2 bad arguments (checked by the harness).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench")


def build():
    """Configures and builds the harness; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode != 0:
                break
        else:
            return True
    with open(log_path) as log:
        tail = log.read().splitlines()[-5:]
    print("perfbench: build failed (see .bench_build/build.log):",
          file=sys.stderr)
    for line in tail:
        print("  " + line, file=sys.stderr)
    return False


def main(argv):
    if not build():
        return 1
    args = [HARNESS] + argv
    if "--workload" in argv and argv.index("--workload") + 1 < len(argv):
        workload = argv[argv.index("--workload") + 1]
        if workload.replace("-", "").isalnum():
            args += ["--spans-out",
                     os.path.join(BUILD, "spans-%s.json" % workload)]
    sys.stdout.flush()
    os.execv(HARNESS, args)  # the harness replaces this process


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
