#!/usr/bin/env python3
"""Fixture tests for intox_analyze.

Two corpora, each a mini-repo (src/, bench/, tests/) so the path-scoped
rules behave exactly as on the real tree:

  tests/lint/fixtures/          the token checks (determinism, metrics,
                                header, pragma): a known-bad
                                snippet per check that must fire, a
                                known-good twin and a pragma-suppressed
                                case that must not
  tests/lint/analyze/fixtures/  one intentionally bad file per index
                                check (sigsafe, taint, atomics), plus a
                                clean helper file the sigsafe handler
                                calls into

Each corpus must produce its exact findings and nothing else. One
driver, one corpus per run (and per ctest):

  tokens  the token corpus, --dump-metric-names and a seeded mini-repo
          (ctest lint_fixtures)
  graph   the graph corpus; the sigsafe --explain output must show the
          real flightrec dump entry points on the signal path, and CLI
          mistakes must exit 2 instead of passing as a clean run
          (ctest analyze_fixtures)

Usage: analyze_fixture_test.py tokens <intox_analyze> <token-corpus>
       analyze_fixture_test.py graph <intox_analyze> <graph-corpus> <repo-root>
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

FINDING_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<check>[a-z-]+)\] (?P<msg>.+)$")

# (path, line, check) triples each corpus must produce. Lines are
# load-bearing: a finding that fires on the wrong line is a bug.
TOKEN_EXPECTED = {
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
    ("src/sim/determinism_bad.cpp", 40, "determinism"),  # mt19937_64
    ("src/sim/determinism_bad.cpp", 41, "determinism"),  # mt19937
    ("src/sim/determinism_bad.cpp", 42, "determinism"),  # *_distribution
    ("src/sim/determinism_bad.cpp", 43, "determinism"),  # std::shuffle(
    ("src/sim/determinism_bad.cpp", 44, "determinism"),  # shuffle(
    ("src/sim/determinism_bad.cpp", 49, "determinism"),  # mersenne_twister
    ("src/sim/pragma_stale_bad.cpp", 7, "pragma"),   # stale suppression
    ("src/sim/pragma_stale_bad.cpp", 11, "pragma"),  # unknown check name
    ("src/sim/pragma_bare_bad.cpp", 9, "pragma"),    # no justification
    ("src/sim/pragma_bare_bad.cpp", 10, "determinism"),  # not suppressed
}

GRAPH_EXPECTED = {
    ("src/atomic_bad.cpp", 13, "atomics"),   # implicit seq_cst in hot lane
    ("src/sig_bad.cpp", 14, "sigsafe"),      # std::string on handler path
    ("src/sig_bad.cpp", 15, "sigsafe"),      # fprintf
    ("src/sig_bad.cpp", 16, "sigsafe"),      # lock_guard acquire
    ("src/sig_bad.cpp", 17, "sigsafe"),      # free
    ("src/sig_bad.cpp", 18, "sigsafe"),      # manual .lock()
    ("src/sig_bad.cpp", 19, "sigsafe"),      # .unlock(): not allowlisted
    ("src/sig_bad.cpp", 34, "sigsafe"),      # method defined in another file
    ("src/sig_bad.cpp", 35, "sigsafe"),      # function defined in another file
    ("src/taint_bad.cpp", 10, "determinism"),  # std::random_device
    ("src/taint_bad.cpp", 11, "determinism"),  # std::rand
    ("src/taint_bad.cpp", 18, "taint"),      # unordered iteration
    ("src/taint_bad.cpp", 37, "taint"),      # ... where no scenario reaches
    ("src/taint_bad.cpp", 43, "taint"),      # ... over a parameter
}

# Every name registered in the token corpus's src/ and bench/, sorted;
# the tests/ registration is left out.
DUMPED_METRICS = [
    "Retransmits", "blink..depth", "blink.Retransmits", "blink.retx-count",
    "fixture.dup_count", "fixture.link2.tx_bytes", "fixture.queue.depth_hwm",
    "fixture.retransmits", "fixture.rtt.micros", "fixture.shared_total",
    "latency",
]

CHECKS = ["atomics", "determinism", "header", "metrics", "pragma",
          "sigsafe", "taint"]

failures = []


def check(cond, what):
    if cond:
        print(f"ok   {what}")
    else:
        print(f"FAIL {what}")
        failures.append(what)


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True)


def check_exact(binary, name, corpus, expected):
    """Scans `corpus` and asserts its finding set equals `expected`."""
    proc = run(binary, "--root", str(corpus))
    check(proc.returncode == 1, f"{name} scan exits 1 (findings present)")

    got = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        check(m is not None, f"output line is file:line: [check] msg: {line!r}")
        if m:
            got.add((m["path"], int(m["line"]), m["check"]))

    for triple in sorted(expected):
        check(triple in got, f"expected finding fired: {triple}")
    for triple in sorted(got - expected):
        check(False, f"unexpected finding: {triple}")
    return got


def check_cli_error(binary, args, what):
    """A CLI mistake exits 2 with exactly one line on stderr."""
    proc = run(binary, *args)
    check(proc.returncode == 2 and len(proc.stderr.splitlines()) == 1,
          f"{what} exits 2 with one stderr line "
          f"(exit {proc.returncode}, stderr {proc.stderr.strip()!r})")


def check_isolation(binary, corpus, check_name, path):
    """--check restricts the run, and the bad file trips only its check."""
    proc = run(binary, "--root", str(corpus), "--check", check_name)
    lines = [l for l in proc.stdout.splitlines() if l]
    check(lines and all(f"[{check_name}]" in l for l in lines),
          f"--check {check_name} restricts the run")
    check(all(l.startswith(path) for l in lines),
          f"all {check_name} findings come from {path}")


def check_tokens(binary, tokens):
    # --- token corpus: exact finding set ------------------------------
    got = check_exact(binary, "token corpus", tokens, TOKEN_EXPECTED)

    # Good twins and suppressed cases must be silent.
    noisy = {p for (p, _, _) in got}
    for quiet in [
        "src/sim/determinism_good.cpp",
        "src/sim/determinism_suppressed.cpp",
        "src/sim/rng.hpp",
        "src/obs/metrics_good.cpp",
        "src/obs/metrics_suppressed.cpp",
        "src/net/header_good.hpp",
        "src/net/header_suppressed.hpp",
    ]:
        assert (tokens / quiet).is_file(), f"fixture missing: {quiet}"
        check(quiet not in noisy, f"no findings in {quiet}")

    check_isolation(binary, tokens, "header", "src/net/header_bad.hpp")

    # --- the metric inventory: product code only -----------------------
    proc = run(binary, "--root", str(tokens), "--dump-metric-names")
    check(proc.returncode == 0 and proc.stdout.split() == DUMPED_METRICS,
          f"--dump-metric-names lists the src/ and bench/ names only: "
          f"{proc.stdout.split()}")

    # --- good-only subset exits 0 -------------------------------------
    proc = run(
        binary, "--root", str(tokens),
        "src/sim/determinism_good.cpp", "src/obs/metrics_good.cpp",
        "src/net/header_good.hpp",
    )
    check(proc.returncode == 0, "good-only subset exits 0")
    check(proc.stdout == "", "good-only subset prints no findings")

    # --- seeding a violation into a clean mini-repo flips the exit ----
    # (clean tree -> 0, then one std::random_device in src/sim/ ->
    # non-zero + file:line)
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

        # libc entropy is banned whether or not a scenario reaches it.
        (simdir / "libc.cpp").write_text(
            "#include <cstdlib>\n"
            "long draw() { return random() ^ lrand48(); }\n"
        )
        proc = run(binary, "--root", tmp, "--check", "determinism")
        check(proc.stdout.count("src/sim/libc.cpp:2: [determinism]") == 2,
              "unreachable random() and lrand48() are determinism findings")


def check_graph(binary, graph, repo):
    # --- graph corpus: exact finding set ------------------------------
    check_exact(binary, "graph corpus", graph, GRAPH_EXPECTED)

    # --- per-check isolation: each bad file trips only its own check --
    for check_name, path in [
        ("sigsafe", "src/sig_bad.cpp"),
        ("taint", "src/taint_bad.cpp"),
        ("atomics", "src/atomic_bad.cpp"),
    ]:
        check_isolation(binary, graph, check_name, path)

    # --- explain: the fixture handler is on the signal path ------------
    proc = run(binary, "--root", str(graph), "--check", "sigsafe",
               "--explain", "sigsafe")
    check("crash_handler" in proc.stdout,
          "--explain sigsafe lists the fixture handler as reachable")

    # --- real tree: flightrec dump entry points are on the signal path
    # (if the signal path ever detached from the analysis roots, the
    # sigsafe check would be proving nothing)
    proc = run(binary, "--root", str(repo), "--check", "sigsafe",
               "--explain", "sigsafe")
    for fn in ["flightrec_dump", "flightrec_dump_on_crash", "crash_handler"]:
        check(fn in proc.stdout,
              f"--explain sigsafe covers real dump path: {fn}")

    # --- CLI surface --------------------------------------------------
    proc = run(binary, "--list-checks")
    check(proc.returncode == 0 and proc.stdout.split() == CHECKS,
          f"--list-checks lists exactly the checks: {proc.stdout.split()}")

    proc = run(binary, "--root", str(graph / "does-not-exist"))
    check(proc.returncode == 2, "bad --root exits 2")

    # A typo must not turn the gate into a no-op.
    check_cli_error(binary, ["--root", str(graph), "src", "srcx"],
                    "a named PATH that does not exist")
    check_cli_error(binary, ["--root", str(graph), "--check", "determinsm"],
                    "an unknown --check name")
    check_cli_error(binary, ["--root", str(graph), "--explain", "sigsaf"],
                    "an unknown --explain name")
    with tempfile.TemporaryDirectory() as empty:
        check_cli_error(binary, ["--root", empty], "a run that scans no files")


def main():
    mode, args = sys.argv[1:2], sys.argv[2:]
    if mode == ["tokens"] and len(args) == 2:
        check_tokens(args[0], Path(args[1]))
    elif mode == ["graph"] and len(args) == 3:
        check_graph(args[0], Path(args[1]), Path(args[2]))
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    print(f"\n{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
