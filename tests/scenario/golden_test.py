#!/usr/bin/env python3
"""Golden-stdout tests for the intox driver.

  golden_test.py INTOX GOLDEN SCENARIO [driver args...]
      `INTOX run SCENARIO args` must exit 0 and print exactly the bytes
      of GOLDEN. Stderr, which carries wall-clock perf records, is
      ignored.
  golden_test.py --point-record INTOX GOLDEN SCENARIO [driver args...]
      The same run with `--point-record FILE`, as an `intox sweep`
      worker makes it, must exit 0 and print nothing, and the record's
      "stdout" must hold exactly the bytes of GOLDEN and its "exit" 0.
  golden_test.py --coverage INTOX GOLDEN_DIR [registered goldens...]
      Every scenario `INTOX list` prints needs GOLDEN_DIR/<scenario>.txt
      with at least one `  [PASS] ` claim, every GOLDEN_DIR/*.txt must be
      a registered golden, and no golden may pin a `[CHECK]` (failed)
      claim.
"""

import json
import shlex
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def shown(path):
    """PATH relative to the repo root when it lives there."""
    path = Path(path).resolve()
    return path.relative_to(ROOT).as_posix() if ROOT in path.parents \
        else str(path)


def run(intox, scenario, args):
    proc = subprocess.run([intox, "run", scenario, *args],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"intox run {scenario} exited {proc.returncode}")
    return proc.stdout


def compare(intox, golden, scenario, args, got, what):
    want = Path(golden).read_bytes()
    if got == want:
        return
    pairs = zip_longest(want.splitlines(keepends=True),
                        got.splitlines(keepends=True), fillvalue=b"")
    lineno, (w, g) = next(
        (n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
    binary = shown(intox)
    if not binary.startswith("/"):
        binary = "./" + binary
    regen = shlex.join([binary, "run", scenario, *args])
    sys.exit(f"{what} diverges from {shown(golden)} at line {lineno}:\n"
             f"  golden: {w.decode(errors='replace')!r}\n"
             f"  {what}: {g.decode(errors='replace')!r}\n"
             f"regenerate from the repo root, then review the diff:\n"
             f"  {regen} > {shown(golden)}")


def check_golden(intox, golden, scenario, args):
    compare(intox, golden, scenario, args, run(intox, scenario, args),
            "stdout")


def check_point_record(intox, golden, scenario, args):
    with tempfile.TemporaryDirectory(prefix="intox_golden_") as tmp:
        path = Path(tmp) / "point.json"
        stdout = run(intox, scenario, [*args, "--point-record", str(path)])
        record = json.loads(path.read_text(encoding="utf-8"))
    if stdout:
        sys.exit(f"intox run {scenario} --point-record printed "
                 f"{len(stdout)} bytes on stdout")
    if record["exit"] != 0:
        sys.exit(f"point record of {scenario} has exit {record['exit']}")
    compare(intox, golden, scenario, args,
            record["stdout"].encode("utf-8"), "record")


def check_coverage(intox, golden_dir, registered):
    listing = subprocess.run([intox, "list"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    goldens = {p.name: p.read_text(encoding="utf-8").splitlines()
               for p in Path(golden_dir).glob("*.txt")}
    problems = []
    for s in (line.split()[0] for line in listing.splitlines()):
        if f"{s}.txt" not in goldens:
            problems.append(f"scenario {s} has no golden {s}.txt")
        elif not any(line.startswith("  [PASS] ")
                     for line in goldens[f"{s}.txt"]):
            problems.append(f"scenario {s} asserts no claim: {s}.txt has "
                            "no [PASS] line")
    problems += [f"{name} has no registered golden test"
                 for name in sorted(set(goldens) - set(registered))]
    problems += [f"{name} pins a failed claim:{line[len('  [CHECK]'):]}"
                 for name, lines in sorted(goldens.items())
                 for line in lines if line.startswith("  [CHECK] ")]
    if problems:
        sys.exit("\n".join(problems))


def main():
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "--coverage":
        check_coverage(args[1], args[2], args[3:])
    elif len(args) >= 4 and args[0] == "--point-record":
        check_point_record(args[1], args[2], args[3], args[4:])
    elif len(args) >= 3:
        check_golden(args[0], args[1], args[2], args[3:])
    else:
        sys.exit(__doc__.strip())


if __name__ == "__main__":
    main()
