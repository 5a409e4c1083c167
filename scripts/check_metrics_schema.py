#!/usr/bin/env python3
"""Validates the JSON documents emitted by the observability layer:
intox.bench_report.v3, intox.sweep_report.v3, intox.point_record.v4
and intox.flightrec.v2 crash dumps, dispatched on the top-level
"schema" field.

Usage:
    scripts/check_metrics_schema.py BENCH_FIG2.json [more.json ...]
    scripts/check_metrics_schema.py sweep_report.json
    scripts/check_metrics_schema.py --names names.txt report.json [...]

With --names, every metric key appearing in a report's counters and
gauges must be listed in NAMES_FILE (one name per line — the output
of `intox_analyze --dump-metric-names`). This cross-checks
the reports against the registration sites the static analyzer found,
so a renamed metric cannot silently fork the time series.

Stdlib-only on purpose: CI runs it right after `python3 -m json.tool`,
so a schema drift fails the pipeline with a pointed message instead of
surfacing weeks later in a plotting notebook.
"""

import json
import sys

SCHEMA = "intox.bench_report.v3"
SWEEP_SCHEMA = "intox.sweep_report.v3"
POINT_SCHEMA = "intox.point_record.v4"
FLIGHTREC_SCHEMA = "intox.flightrec.v2"
FLIGHTREC_TYPE_COUNT = 10


class SchemaError(Exception):
    pass


# Set by --names: the registration-site inventory metric keys must
# belong to. None disables the cross-check.
KNOWN_METRIC_NAMES = None


def expect(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_uint(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def check_sweep(sweep, path):
    expect(isinstance(sweep, dict), path, "sweep must be an object")
    for key, pred, what in (
        ("sweep", lambda v: isinstance(v, str) and v, "non-empty string"),
        ("trials", is_uint, "non-negative integer"),
        ("threads", is_uint, "non-negative integer"),
        ("wall_s", is_num, "number"),
        ("trials_per_s", is_num, "number"),
    ):
        expect(key in sweep, path, f"missing key '{key}'")
        expect(pred(sweep[key]), f"{path}.{key}", f"must be a {what}")
    if "shard_wall_s" in sweep:
        shard = sweep["shard_wall_s"]
        spath = f"{path}.shard_wall_s"
        expect(isinstance(shard, dict), spath, "must be an object")
        for key in ("min", "max", "imbalance"):
            expect(is_num(shard.get(key)), f"{spath}.{key}", "must be a number")
        expect(shard["min"] <= shard["max"], spath, "min must be <= max")
        expect(shard["imbalance"] >= 1.0 or shard["imbalance"] == 0.0, spath,
               "imbalance is max/mean, so >= 1 (or 0 for unknown)")


def check_known_name(name, path):
    if KNOWN_METRIC_NAMES is None:
        return
    expect(name in KNOWN_METRIC_NAMES, f"{path}.{name}",
           "metric name not found at any registration site "
           "(stale report, or re-run intox_analyze --dump-metric-names)")


def check_metrics(metrics, path):
    expect(isinstance(metrics, dict), path, "must be an object")
    expect(sorted(metrics) == ["counters", "gauges"], path,
           f"must hold exactly 'counters' and 'gauges' "
           f"(got {sorted(metrics)})")
    for section, pred, what in (
        ("counters", is_uint, "non-negative integer"),
        ("gauges", is_num, "number"),
    ):
        block = metrics.get(section)
        expect(isinstance(block, dict), f"{path}.{section}",
               "must be an object")
        for name, value in block.items():
            expect(pred(value), f"{path}.{section}.{name}",
                   f"must be a {what}")
            check_known_name(name, f"{path}.{section}")


def check_report(doc, path):
    expect(isinstance(doc, dict), path, "report must be an object")
    expect(doc.get("schema") == SCHEMA, f"{path}.schema",
           f"must be '{SCHEMA}' (got {doc.get('schema')!r})")
    expect(isinstance(doc.get("family"), str) and doc["family"],
           f"{path}.family", "must be a non-empty string")
    expect(is_uint(doc.get("threads_requested")), f"{path}.threads_requested",
           "must be a non-negative integer")

    expect(isinstance(doc.get("sweeps"), list), f"{path}.sweeps",
           "must be an array")
    for i, sweep in enumerate(doc["sweeps"]):
        check_sweep(sweep, f"{path}.sweeps[{i}]")

    check_metrics(doc.get("metrics"), f"{path}.metrics")


def check_point_record(doc, path):
    expect(isinstance(doc, dict), path, "point record must be an object")
    expect(doc.get("schema") == POINT_SCHEMA, f"{path}.schema",
           f"must be '{POINT_SCHEMA}' (got {doc.get('schema')!r})")
    for key in ("scenario", "family"):
        expect(isinstance(doc.get(key), str) and doc[key], f"{path}.{key}",
               "must be a non-empty string")
    knobs = doc.get("knobs")
    expect(isinstance(knobs, dict), f"{path}.knobs", "must be an object")
    for name, value in knobs.items():
        expect(isinstance(value, str), f"{path}.knobs.{name}",
               "must be a string (knobs are recorded as rendered text)")
    expect(is_uint(doc.get("exit")), f"{path}.exit",
           "must be a non-negative integer")
    expect(isinstance(doc.get("stdout"), str), f"{path}.stdout",
           "must be a string")
    check_metrics(doc.get("metrics"), f"{path}.metrics")


def check_sweep_report(doc, path):
    expect(isinstance(doc, dict), path, "sweep report must be an object")
    expect(doc.get("schema") == SWEEP_SCHEMA, f"{path}.schema",
           f"must be '{SWEEP_SCHEMA}' (got {doc.get('schema')!r})")
    for key in ("scenario", "family"):
        expect(isinstance(doc.get(key), str) and doc[key], f"{path}.{key}",
               "must be a non-empty string")
    axes = doc.get("axes")
    expect(isinstance(axes, list), f"{path}.axes", "must be an array")
    expected_points = 1
    for i, axis in enumerate(axes):
        apath = f"{path}.axes[{i}]"
        expect(isinstance(axis, dict), apath, "axis must be an object")
        expect(isinstance(axis.get("key"), str) and axis["key"],
               f"{apath}.key", "must be a non-empty string")
        values = axis.get("values")
        expect(isinstance(values, list) and values, f"{apath}.values",
               "must be a non-empty array")
        expect(all(isinstance(v, str) for v in values), f"{apath}.values",
               "entries must be strings (rendered knob values)")
        expected_points *= len(values)
    records = doc.get("records")
    expect(isinstance(records, list), f"{path}.records", "must be an array")
    expect(doc.get("points") == len(records), f"{path}.points",
           f"must equal len(records) == {len(records)}")
    expect(len(records) == expected_points, f"{path}.records",
           f"must hold the full cross product ({expected_points} points)")
    for i, record in enumerate(records):
        check_point_record(record, f"{path}.records[{i}]")
    aggregates = doc.get("aggregates")
    apath = f"{path}.aggregates"
    expect(isinstance(aggregates, dict), apath, "must be an object")
    for section in ("counters", "gauges"):
        block = aggregates.get(section)
        spath = f"{apath}.{section}"
        expect(isinstance(block, dict), spath, "must be an object")
        for name, agg in block.items():
            npath = f"{spath}.{name}"
            expect(isinstance(agg, dict), npath, "must be an object")
            for key in ("count", "min", "max", "mean"):
                expect(is_num(agg.get(key)), f"{npath}.{key}",
                       "must be a number")
            expect(is_uint(agg["count"]) and agg["count"] >= 1, npath,
                   "count must be a positive integer")
            expect(agg["min"] <= agg["max"], npath, "min must be <= max")
            # Tolerance absorbs float summation rounding in the mean.
            tol = 1e-9 * max(abs(agg["min"]), abs(agg["max"]), 1.0)
            expect(agg["min"] - tol <= agg["mean"] <= agg["max"] + tol,
                   npath, "mean must lie within [min, max]")
            expect(agg["count"] <= len(records), npath,
                   "count cannot exceed the number of points")


def check_flightrec(doc, path):
    expect(isinstance(doc, dict), path, "flightrec dump must be an object")
    expect(doc.get("schema") == FLIGHTREC_SCHEMA, f"{path}.schema",
           f"must be '{FLIGHTREC_SCHEMA}' (got {doc.get('schema')!r})")
    expect(is_uint(doc.get("pid")) and doc["pid"] > 0, f"{path}.pid",
           "must be a positive integer")
    expect(isinstance(doc.get("reason"), str) and doc["reason"],
           f"{path}.reason", "must be a non-empty string")
    expect(isinstance(doc.get("detail"), str), f"{path}.detail",
           "must be a string")
    expect(isinstance(doc.get("scenario"), str), f"{path}.scenario",
           "must be a string (may be empty outside the driver)")
    types = doc.get("types")
    expect(isinstance(types, list) and len(types) == FLIGHTREC_TYPE_COUNT,
           f"{path}.types",
           f"must be the {FLIGHTREC_TYPE_COUNT}-entry type-name table")
    expect(all(isinstance(t, str) and t for t in types), f"{path}.types",
           "entries must be non-empty strings")
    expect(is_uint(doc.get("dropped_threads")), f"{path}.dropped_threads",
           "must be a non-negative integer")
    threads = doc.get("threads")
    expect(isinstance(threads, list), f"{path}.threads", "must be an array")
    for i, thread in enumerate(threads):
        tpath = f"{path}.threads[{i}]"
        expect(isinstance(thread, dict), tpath, "must be an object")
        expect(is_uint(thread.get("tid")) and thread["tid"] > 0,
               f"{tpath}.tid", "must be a positive integer")
        lanes = thread.get("lanes")
        expect(isinstance(lanes, list), f"{tpath}.lanes", "must be an array")
        for lane in lanes:
            lname = lane.get("lane") if isinstance(lane, dict) else None
            lpath = f"{tpath}.lanes[{lname!r}]"
            expect(isinstance(lane, dict), lpath, "must be an object")
            expect(lname in ("hot", "decision"), f"{lpath}.lane",
                   "must be 'hot' or 'decision'")
            expect(is_uint(lane.get("capacity")) and lane["capacity"] > 0,
                   f"{lpath}.capacity", "must be a positive integer")
            for key in ("recorded", "dropped"):
                expect(is_uint(lane.get(key)), f"{lpath}.{key}",
                       "must be a non-negative integer")
            records = lane.get("records")
            expect(isinstance(records, list), f"{lpath}.records",
                   "must be an array")
            expect(len(records) <= lane["capacity"], f"{lpath}.records",
                   "cannot hold more than the lane capacity")
            expect(lane["dropped"] + len(records) == lane["recorded"],
                   lpath, "dropped + kept must equal recorded")
            for j, record in enumerate(records):
                expect(isinstance(record, list) and len(record) == 5
                       and all(is_num(w) for w in record),
                       f"{lpath}.records[{j}]",
                       "must be a [time, type, a, b, c] array of numbers")


def main(argv):
    global KNOWN_METRIC_NAMES
    args = argv[1:]
    if args and args[0] == "--names":
        if len(args) < 2:
            print("--names requires a names file", file=sys.stderr)
            return 2
        try:
            with open(args[1], encoding="utf-8") as f:
                KNOWN_METRIC_NAMES = {
                    line.strip() for line in f if line.strip()
                }
        except OSError as err:
            print(f"FAIL {args[1]}: {err}", file=sys.stderr)
            return 2
        if not KNOWN_METRIC_NAMES:
            print(f"FAIL {args[1]}: names file is empty", file=sys.stderr)
            return 2
        args = args[2:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    failures = 0
    for filename in args:
        try:
            # A zero-byte report means the producer crashed before its
            # first write; name that directly instead of surfacing
            # json's "Expecting value" riddle. ValueError also covers
            # UnicodeDecodeError (binary garbage), which previously
            # escaped as a traceback.
            with open(filename, "rb") as f:
                raw = f.read()
            if not raw.strip():
                raise SchemaError("empty input file (no JSON content)")
            doc = json.loads(raw.decode("utf-8"))
            schema = doc.get("schema") if isinstance(doc, dict) else None
            if schema == SWEEP_SCHEMA:
                kind = "sweep report"
                check_sweep_report(doc, filename)
            elif schema == POINT_SCHEMA:
                kind = "point record"
                check_point_record(doc, filename)
            elif schema == FLIGHTREC_SCHEMA:
                kind = "flightrec dump"
                check_flightrec(doc, filename)
            else:
                kind = "report"
                check_report(doc, filename)
        except (OSError, ValueError, SchemaError) as err:
            print(f"FAIL {filename}: {err}", file=sys.stderr)
            failures += 1
            continue
        print(f"ok {filename} ({kind})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
