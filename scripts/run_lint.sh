#!/usr/bin/env bash
# Runs the full static-analysis stack:
#
#   1. intox_analyze     project-specific checks in one pass: per-file
#                        conventions (determinism, metric naming, header
#                        hygiene) and checks over an index of the tree
#                        (async-signal-safety, hash-order taint, atomic
#                        memory-order policy); built via the `lint` preset
#   2. clang-tidy        curated .clang-tidy profile over every entry in
#                        the lint preset's compile_commands.json
#   3. clang-format      --dry-run -Werror diff gate over tracked C++
#
# Tools 2 and 3 are skipped with a warning when the host lacks them
# (the container toolchain is gcc-only); CI passes --require-tidy
# --require-format so the gate cannot silently soften there.
#
# Usage: scripts/run_lint.sh [--require-tidy] [--require-format]
set -euo pipefail

cd "$(dirname "$0")/.."

require_tidy=0
require_format=0
for arg in "$@"; do
  case "$arg" in
    --require-tidy) require_tidy=1 ;;
    --require-format) require_format=1 ;;
    *) echo "usage: $0 [--require-tidy] [--require-format]" >&2; exit 2 ;;
  esac
done

status=0

# --- 1. intox_analyze ------------------------------------------------------
if [ ! -f build-lint/CMakeCache.txt ]; then
  cmake --preset lint > /dev/null
fi
cmake --build build-lint --target intox_analyze -j "$(nproc)" > /dev/null

echo "== intox_analyze =="
if ! ./build-lint/tools/intox_analyze/intox_analyze --root .; then
  status=1
fi

# --- 2. clang-tidy ---------------------------------------------------------
echo "== clang-tidy =="
if command -v clang-tidy > /dev/null; then
  # Files from the compile database only: every TU the build compiles
  # gets checked with exactly the flags it compiles with.
  mapfile -t tus < <(python3 - <<'EOF'
import json
for entry in json.load(open("build-lint/compile_commands.json")):
    f = entry["file"]
    if "/tests/lint/fixtures/" in f or "/tests/lint/analyze/fixtures/" in f:
        continue  # known-bad on purpose
    print(f)
EOF
)
  if command -v run-clang-tidy > /dev/null; then
    if ! run-clang-tidy -p build-lint -quiet "${tus[@]}" > build-lint/tidy.log 2>&1; then
      cat build-lint/tidy.log
      status=1
    else
      echo "clang-tidy: ${#tus[@]} translation units clean"
    fi
  else
    tidy_failed=0
    for f in "${tus[@]}"; do
      clang-tidy -p build-lint --quiet "$f" || tidy_failed=1
    done
    if [ "$tidy_failed" -ne 0 ]; then
      status=1
    else
      echo "clang-tidy: ${#tus[@]} translation units clean"
    fi
  fi
elif [ "$require_tidy" -eq 1 ]; then
  echo "error: clang-tidy required but not installed" >&2
  status=1
else
  echo "clang-tidy not installed; skipping (CI runs it with --require-tidy)"
fi

# --- 3. clang-format -------------------------------------------------------
echo "== clang-format =="
if command -v clang-format > /dev/null; then
  mapfile -t cxx_files < <(git ls-files '*.cpp' '*.hpp' \
    | grep -v '^tests/lint/fixtures/' \
    | grep -v '^tests/lint/analyze/fixtures/')
  if ! clang-format --dry-run -Werror "${cxx_files[@]}"; then
    echo "clang-format: run 'clang-format -i' on the files above" >&2
    status=1
  else
    echo "clang-format: ${#cxx_files[@]} files clean"
  fi
elif [ "$require_format" -eq 1 ]; then
  echo "error: clang-format required but not installed" >&2
  status=1
else
  echo "clang-format not installed; skipping (CI runs it with --require-format)"
fi

exit "$status"
