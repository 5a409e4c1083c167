#!/usr/bin/env python3
"""Fixture tests for intox_lint.

For every check the corpus under tests/lint/fixtures/ holds a
known-bad snippet that must fire, a known-good twin that must not, and
a pragma-suppressed case. The corpus is a mini-repo (src/, bench/,
tests/) so the path-scoped rules behave exactly as on the real tree.

Usage: lint_fixture_test.py <path-to-intox_lint> <fixtures-dir>
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<check>[a-z-]+)\] (?P<msg>.+)$")

# (path, line, check) triples that the corpus must produce. Lines are
# load-bearing: a finding that fires on the wrong line is a bug.
EXPECTED = {
    ("bench/bench_clock_bad.cpp", 9, "determinism"),
    ("bench/bench_clock_bad.cpp", 10, "determinism"),
    ("src/net/header_bad.hpp", 1, "header"),       # missing #pragma once
    ("src/net/header_bad.hpp", 4, "header"),       # <iostream>
    ("src/net/header_bad.hpp", 7, "header"),       # using namespace
    ("src/obs/metrics_bad.cpp", 9, "metrics"),
    ("src/obs/metrics_bad.cpp", 10, "metrics"),
    ("src/obs/metrics_bad.cpp", 11, "metrics"),
    ("src/obs/metrics_bad.cpp", 12, "metrics"),
    ("src/obs/metrics_bad.cpp", 13, "metrics"),
    ("src/obs/metrics_bad.cpp", 19, "metrics"),    # duplicate site
    ("src/sim/determinism_bad.cpp", 12, "determinism"),  # random_device
    ("src/sim/determinism_bad.cpp", 17, "determinism"),  # srand
    ("src/sim/determinism_bad.cpp", 18, "determinism"),  # rand()
    ("src/sim/determinism_bad.cpp", 22, "determinism"),  # system_clock
    ("src/sim/determinism_bad.cpp", 29, "determinism"),  # ::time()
    ("src/sim/determinism_bad.cpp", 33, "determinism"),  # Rng(42)
    ("src/sim/pragma_stale_bad.cpp", 7, "pragma"),   # stale suppression
    ("src/sim/pragma_stale_bad.cpp", 11, "pragma"),  # unknown check name
    ("src/sim/pragma_bare_bad.cpp", 9, "pragma"),    # no -- justification
    ("src/sim/pragma_bare_bad.cpp", 10, "determinism"),  # not suppressed
    ("src/validate/invariant_bad.cpp", 10, "invariant"),  # ++
    ("src/validate/invariant_bad.cpp", 15, "invariant"),  # --
    ("src/validate/invariant_bad.cpp", 20, "invariant"),  # =
    ("src/validate/invariant_bad.cpp", 24, "invariant"),  # +=
    ("src/validate/invariant_bad.cpp", 28, "invariant"),  # .erase()
    ("tests/determinism_exempt.cpp", 21, "invariant"),
}

failures = []


def check(cond, what):
    if cond:
        print(f"ok   {what}")
    else:
        print(f"FAIL {what}")
        failures.append(what)


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, fixtures = sys.argv[1], Path(sys.argv[2])

    # --- full corpus: exact finding set -------------------------------
    proc = run(binary, "--root", str(fixtures))
    check(proc.returncode == 1, "corpus scan exits 1 (findings present)")

    got = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        check(m is not None, f"output line is file:line: [check] msg: {line!r}")
        if m:
            got.add((m["path"], int(m["line"]), m["check"]))

    for triple in sorted(EXPECTED):
        check(triple in got, f"expected finding fired: {triple}")
    for triple in sorted(got - EXPECTED):
        check(False, f"unexpected finding: {triple}")

    # Good twins and suppressed cases must be silent.
    noisy = {p for (p, _, _) in got}
    for quiet in [
        "src/sim/determinism_good.cpp",
        "src/sim/determinism_suppressed.cpp",
        "src/validate/invariant_good.cpp",
        "src/validate/invariant_suppressed.cpp",
        "src/obs/metrics_good.cpp",
        "src/obs/metrics_suppressed.cpp",
        "src/net/header_good.hpp",
        "src/net/header_suppressed.hpp",
    ]:
        assert (fixtures / quiet).is_file(), f"fixture missing: {quiet}"
        check(quiet not in noisy, f"no findings in {quiet}")

    # --- good-only subset exits 0 -------------------------------------
    proc = run(
        binary, "--root", str(fixtures),
        "src/sim/determinism_good.cpp", "src/validate/invariant_good.cpp",
        "src/obs/metrics_good.cpp", "src/net/header_good.hpp",
    )
    check(proc.returncode == 0, "good-only subset exits 0")
    check(proc.stdout == "", "good-only subset prints no findings")

    # --- seeding a violation into a clean mini-repo flips the exit ----
    # (the acceptance-criteria scenario, end to end: clean tree -> 0,
    # then one std::random_device in src/sim/ -> non-zero + file:line)
    with tempfile.TemporaryDirectory() as tmp:
        simdir = Path(tmp) / "src" / "sim"
        simdir.mkdir(parents=True)
        clean = simdir / "clean.cpp"
        clean.write_text("namespace x { inline int f() { return 1; } }\n")
        proc = run(binary, "--root", tmp)
        check(proc.returncode == 0, "seeded mini-repo starts clean")

        (simdir / "dirty.cpp").write_text(
            "#include <random>\n"
            "namespace x { inline unsigned f() {\n"
            "  std::random_device rd;  /* injected */\n"
            "  return rd(); } }\n"
        )
        proc = run(binary, "--root", tmp)
        check(proc.returncode == 1, "injected random_device flips exit to 1")
        check("src/sim/dirty.cpp:3" in proc.stdout,
              "injected finding reported with file:line")

    # --- CLI surface --------------------------------------------------
    proc = run(binary, "--list-checks")
    check(proc.returncode == 0 and "determinism" in proc.stdout
          and "invariant" in proc.stdout, "--list-checks lists the checks")

    proc = run(binary, "--root", str(fixtures), "--check", "header")
    lines = [l for l in proc.stdout.splitlines() if l]
    check(lines and all("[header]" in l for l in lines),
          "--check header restricts the run to one check")

    proc = run(binary, "--root", str(fixtures / "does-not-exist"))
    check(proc.returncode == 2, "bad --root exits 2")

    print(f"\n{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
