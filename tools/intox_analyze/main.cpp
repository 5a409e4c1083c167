// intox_analyze — the intox tree's static analysis: per-file convention
// checks and checks over an index of the tree, in one pass.
//
// Usage:
//   intox_analyze [--root DIR] [--check NAME]... [--explain NAME]
//                 [--dump-metric-names] [--list-checks] [PATH]...
//
// PATHs are files or subtrees relative to --root (default: src bench
// tests tools). Findings print as `path:line: [check] message` on
// stdout; the summary goes to stderr. Exit 0 on a clean run, 1 when
// findings remain, 2 on usage/environment errors — including a check
// name that does not exist, a PATH that does not exist, or a run that
// finds no C++ files at all.
#include <algorithm>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analyze.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: intox_analyze [--root DIR] [--check NAME]...\n"
         "                     [--explain NAME] [--dump-metric-names]\n"
         "                     [--list-checks] [PATH]...\n"
         "\n"
         "Scans PATHs (default: src bench tests tools, relative to --root).\n"
         "Suppress a finding with an \"intox-analyze:\" comment holding\n"
         "allow(<check>, <justification>) on the same or preceding line.\n";
  return code;
}

bool require_check(const std::string& name) {
  const auto& known = intox::analyze::check_names();
  if (std::find(known.begin(), known.end(), name) != known.end()) return true;
  std::cerr << "intox_analyze: unknown check: " << name
            << " (see --list-checks)\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  intox::analyze::Options opts;
  bool dump_metric_names = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "intox_analyze: " << what << " requires an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opts.root = next("--root");
    } else if (arg == "--check") {
      opts.only_checks.push_back(next("--check"));
      if (!require_check(opts.only_checks.back())) return 2;
    } else if (arg == "--explain") {
      opts.explain_check = next("--explain");
      if (!require_check(opts.explain_check)) return 2;
    } else if (arg == "--dump-metric-names") {
      dump_metric_names = true;
    } else if (arg == "--list-checks") {
      for (const std::string& c : intox::analyze::check_names())
        std::cout << c << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "intox_analyze: unknown option: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      opts.paths.push_back(arg);
    }
  }

  try {
    if (dump_metric_names) {
      // The same product-code inventory the metrics check validates.
      const intox::analyze::Index index = intox::analyze::build_index(opts);
      std::set<std::string> names;
      for (const intox::analyze::MetricReg& m : index.metric_regs)
        if (intox::analyze::in_product_code(m.file)) names.insert(m.name);
      for (const std::string& n : names) std::cout << n << "\n";
      return 0;
    }

    const intox::analyze::RunResult result =
        intox::analyze::run_analyze(opts, std::cout);
    intox::analyze::print_findings(std::cout, result.findings);
    std::cerr << "intox_analyze: " << result.files_scanned << " files, "
              << result.findings.size() << " findings, " << result.suppressed
              << " suppressed\n";
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
