// Merged sweep report: one deterministic document per completed sweep.
//
// The orchestrator concatenates the per-point records — in point order,
// verbatim — under an intox.sweep_report.v1.1 envelope, and folds
// cross-point aggregates (count/min/max/mean per metric, across every
// point whose record carries a parseable metrics section) after the
// records array. Every field is a pure function of (binary, scenario,
// knob vector), so a sweep that was interrupted and resumed produces a
// report byte-identical to an uninterrupted run; cache-hit accounting
// deliberately lives in the obs registry / stderr summary instead,
// where it belongs.
//
// v1 -> v1.1: added the "aggregates" object (minor bump — consumers of
// v1 fields are unaffected apart from the schema string).
#pragma once

#include <string>
#include <vector>

#include "sweep/point.hpp"

namespace intox::sweep {

inline constexpr const char* kSweepReportSchema = "intox.sweep_report.v1.1";

struct MergeInput {
  std::string scenario;
  std::string family;
  std::vector<SweepAxis> axes;
  /// Committed record file paths, in point order (position == index).
  std::vector<std::string> record_paths;
};

/// Reads every record and renders the merged report document (with a
/// trailing newline), setting *worst_exit to the largest point "exit"
/// (a record without an integer exit counts as 1). Returns empty and
/// sets *error on failure.
std::string render_merged_report(const MergeInput& in, int* worst_exit,
                                 std::string* error);

/// Writes `doc` to `path` via write-temp-then-rename, or to stdout when
/// `path` is empty. Returns empty on success, else the diagnostic.
std::string commit_report(const std::string& path, const std::string& doc);

}  // namespace intox::sweep
