// Driver: file collection, indexing, suppression accounting.
//
// Suppression syntax: an "intox-analyze:" comment with an
// allow(check, justification) clause on the finding's line or the line
// directly above it. A pragma names one check, and the justification
// after the first comma is mandatory; a bare allow(check) is itself a
// finding, as is a suppression that suppresses nothing (stale) or names
// an unknown check. A justified pragma is the only way to excuse a
// finding. (The syntax is spelled indirectly here so the analyzer does
// not parse this header comment as a pragma.)
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "index.hpp"

namespace intox::analyze {

struct Options {
  std::string root = ".";
  /// Files or subtrees (relative to root) to analyze; default src,
  /// bench, tests and tools. A named path must exist.
  std::vector<std::string> paths;
  std::vector<std::string> only_checks;
  /// When non-empty, print that check's evidence (the signal path, the
  /// taint scope, pairing tables) to stdout before the findings.
  std::string explain_check;
};

struct RunResult {
  std::vector<Finding> findings;  // fail the run
  int files_scanned = 0;
  int suppressed = 0;
};

/// Builds the index over the configured file set (no checks run). Used
/// by --dump-metric-names. Throws std::runtime_error on unusable input
/// (missing root or path, nothing to scan), as run_analyze does.
Index build_index(const Options& opts);

RunResult run_analyze(const Options& opts, std::ostream& explain_out);

void print_findings(std::ostream& out, const std::vector<Finding>& findings);

}  // namespace intox::analyze
