// Merged sweep report: one deterministic document per completed sweep.
//
// The orchestrator concatenates the per-point records — in point order,
// verbatim — under an intox.sweep_report.v3 envelope, and folds
// cross-point aggregates (count/min/max/mean per metric, across every
// point whose record carries a parseable metrics section) after the
// records array. Every field is a pure function of (binary, scenario,
// knob vector), so a sweep that was interrupted and resumed produces a
// report byte-identical to an uninterrupted run; cache-hit accounting
// deliberately lives in the obs registry / stderr summary instead,
// where it belongs.
//
// v3: the records are intox.point_record.v4, whose metrics hold only
// counters and gauges.
#pragma once

#include <string>
#include <vector>

#include "sweep/point.hpp"

namespace intox::sweep {

inline constexpr const char* kSweepReportSchema = "intox.sweep_report.v3";

struct MergeInput {
  std::string scenario;
  std::string family;
  std::vector<SweepAxis> axes;
  /// Committed record file paths, in point order (position == index).
  std::vector<std::string> record_paths;
};

/// Reads every record and renders the merged report document (with a
/// trailing newline). Sets *worst_exit to the largest point "exit" (a
/// record without an integer exit counts as 1) and *text to what the
/// sweep prints: each point's `[sweep] k=v ...` line (none without
/// axes), then the record's "stdout", in point order. Returns empty and
/// sets *error on failure.
std::string render_merged_report(const MergeInput& in, int* worst_exit,
                                 std::string* text, std::string* error);

}  // namespace intox::sweep
