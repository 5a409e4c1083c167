#!/usr/bin/env python3
"""Smoke test for scripts/check_metrics_schema.py failure modes.

An unreadable, empty, or binary report must exit non-zero with exactly
one `FAIL <file>: <reason>` diagnostic line — never a traceback (a
zero-byte report used to print json's "Expecting value" riddle and
binary input escaped as an uncaught UnicodeDecodeError).

Usage: schema_checker_smoke_test.py <path-to-check_metrics_schema.py>
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

failures = []


def check(cond, what):
    if cond:
        print(f"ok   {what}")
    else:
        print(f"FAIL {what}")
        failures.append(what)


def run(script, *args):
    return subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True)


def expect_one_line_fail(script, path, what):
    proc = run(script, str(path))
    check(proc.returncode == 1, f"{what}: exits 1 (got {proc.returncode})")
    check("Traceback" not in proc.stderr, f"{what}: no traceback")
    lines = [l for l in proc.stderr.splitlines() if l.strip()]
    check(len(lines) == 1 and lines[0].startswith(f"FAIL {path}: "),
          f"{what}: single FAIL diagnostic line (got {lines!r})")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    script = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)

        empty = tmpdir / "empty.json"
        empty.write_bytes(b"")
        expect_one_line_fail(script, empty, "zero-byte report")
        proc = run(script, str(empty))
        check("empty input file" in proc.stderr,
              "zero-byte report: diagnostic names the emptiness")

        blank = tmpdir / "blank.json"
        blank.write_bytes(b" \n\t\n")
        expect_one_line_fail(script, blank, "whitespace-only report")

        binary = tmpdir / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00garbage")
        expect_one_line_fail(script, binary, "non-UTF-8 report")

        expect_one_line_fail(script, tmpdir / "missing.json",
                             "nonexistent report")

        truncated = tmpdir / "truncated.json"
        truncated.write_text('{"schema": "intox.bench_report.v3", "fam')
        expect_one_line_fail(script, truncated, "truncated JSON")

        # A valid minimal report still passes (the fix must not break
        # the happy path).
        good = tmpdir / "good.json"
        good_doc = {
            "schema": "intox.bench_report.v3",
            "family": "SMOKE",
            "threads_requested": 1,
            "sweeps": [],
            "metrics": {"counters": {}, "gauges": {}},
        }
        good.write_text(json.dumps(good_doc))
        proc = run(script, str(good))
        check(proc.returncode == 0, "valid minimal report exits 0")

        # Metrics are counters and gauges only: a report that still
        # carries a histograms section is refused.
        hist = tmpdir / "hist.json"
        hist.write_text(json.dumps({**good_doc, "metrics": {
            "counters": {}, "gauges": {}, "histograms": {}}}))
        expect_one_line_fail(script, hist, "report with a histograms section")

        # A minimal flightrec dump passes too.
        dump = tmpdir / "dump.flightrec.json"
        dump_doc = {
            "schema": "intox.flightrec.v2",
            "pid": 42,
            "reason": "signal:SIGSEGV",
            "detail": "",
            "scenario": "smoke",
            "types": ["none", "sched.fire", "link.drop", "blink.retx",
                      "blink.reroute", "blink.veto", "pcc.decision",
                      "pytheas.move", "attacker.action", "note"],
            "dropped_threads": 0,
            "threads": [{"tid": 1, "lanes": [
                {"lane": "hot", "capacity": 4, "recorded": 6, "dropped": 2,
                 "records": [[1, 1, 0, 0, 0], [2, 1, 0, 0, 0],
                             [3, 1, 0, 0, 0], [4, 1, 0, 0, 0]]},
                {"lane": "decision", "capacity": 4, "recorded": 0,
                 "dropped": 0, "records": []},
            ]}],
        }
        dump.write_text(json.dumps(dump_doc))
        proc = run(script, str(dump))
        check(proc.returncode == 0, "valid flightrec dump exits 0")

        # v1 numbered the record types differently: refused, not misread.
        old_dump = tmpdir / "old.flightrec.json"
        old_dump.write_text(json.dumps({**dump_doc,
                                        "schema": "intox.flightrec.v1"}))
        expect_one_line_fail(script, old_dump, "flightrec v1 dump")

        bad_dump = tmpdir / "bad.flightrec.json"
        bad_dump.write_text(json.dumps({
            "schema": "intox.flightrec.v2",
            "pid": 42, "reason": "manual", "detail": "", "scenario": "",
            "types": ["only-one"],
            "dropped_threads": 0, "threads": [],
        }))
        expect_one_line_fail(script, bad_dump,
                             "flightrec dump with a bad type table")

        # One bad file among good ones still fails the batch.
        proc = run(script, str(good), str(empty))
        check(proc.returncode == 1, "bad file in a batch fails the batch")

        # --names cross-check: a report naming an unregistered metric
        # fails; the same report passes once the name is inventoried.
        named = tmpdir / "named.json"
        named.write_text(json.dumps({
            "schema": "intox.bench_report.v3",
            "family": "SMOKE",
            "threads_requested": 1,
            "sweeps": [],
            "metrics": {"counters": {"smoke.trials": 3}, "gauges": {}},
        }))
        names = tmpdir / "names.txt"
        names.write_text("other.metric\n")
        proc = run(script, "--names", str(names), str(named))
        check(proc.returncode == 1 and "smoke.trials" in proc.stderr,
              "--names flags a metric missing from the inventory")
        names.write_text("other.metric\nsmoke.trials\n")
        proc = run(script, "--names", str(names), str(named))
        check(proc.returncode == 0, "--names passes an inventoried metric")
        proc = run(script, "--names", str(tmpdir / "no-names.txt"),
                   str(named))
        check(proc.returncode == 2, "--names with a missing file exits 2")

    print(f"\n{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
