// The project-specific checks. Each one enforces a convention that
// PRs 1-3 made load-bearing but that nothing mechanical guarded:
//
//   determinism  Trial results must be a pure function of the seed.
//                Bans entropy/wall-clock reads (std::random_device,
//                rand/srand, time/gettimeofday, <chrono> clock types)
//                in src/ and bench/, and literal-seeded
//                Rng construction in src/ (seeds must be forked or
//                plumbed from config so `--threads` cannot perturb
//                them). Perf-timing clocks carry a justified
//                `// intox-lint: allow(determinism)  -- why` pragma
//                (the trailer is mandatory; see the pragma check).
//
//   invariant    INTOX_INVARIANT conditions compile out under
//                -DINTOX_INVARIANTS_DISABLED, so a side effect in the
//                condition changes program behavior between
//                configurations. Flags assignment, ++/--, and calls to
//                known-mutating methods inside the condition.
//
//   metrics      Metric-name string literals at registration sites
//                (.counter("...") etc.) must match the dotted
//                `family.name` grammar and be unique per registration
//                site, so two subsystems cannot silently fold their
//                counts together.
//
//   header       #pragma once in every header, no `using namespace`
//                at header scope, and no <iostream> in src/ headers
//                (hot-path translation units must not inherit stream
//                globals and their static initializers).
//
//   pragma       Suppressions are themselves linted: an allow(...)
//                with no `-- justification` trailer, an unknown check
//                name, or a pragma that suppresses nothing is a
//                finding, so the suppression inventory cannot rot.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "token.hpp"

namespace intox::lint {

// The token model lives in the shared tools/cxxlex library.
using cxxlex::Token;
using cxxlex::TokenKind;
using cxxlex::TokenStream;

struct Finding {
  std::string path;  // repo-relative, '/'-separated
  int line;
  std::string check;  // "determinism" | "invariant" | "metrics" | ...
  std::string message;
};

/// Where a file sits in the tree decides which checks apply to it.
struct FileClass {
  std::string rel_path;
  bool in_src = false;
  bool in_bench = false;
  bool in_tests = false;
  bool is_header = false;
};

FileClass classify(const std::string& rel_path);

/// Names of every check, for --list-checks and pragma validation.
const std::vector<std::string>& check_names();

/// Runs all single-file checks and accumulates cross-file state (the
/// metric-name registry). Call finish() once after the last file to
/// emit duplicate-registration findings.
class Checker {
 public:
  void scan_file(const FileClass& fc, const TokenStream& tokens,
                 std::vector<Finding>& out);
  void finish(std::vector<Finding>& out);

 private:
  struct MetricSite {
    std::string path;
    int line;
  };
  // name -> every registration site seen, in scan order.
  std::map<std::string, std::vector<MetricSite>> metric_sites_;
};

}  // namespace intox::lint
