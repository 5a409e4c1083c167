// intox_lint — project-specific static analysis for the intox tree.
//
//   intox_lint [--root DIR] [--baseline FILE] [--check NAME]...
//              [--list-checks] [PATH...]
//
// PATHs are files or directories relative to --root (default: src,
// bench, tests). Exit status: 0 clean, 1 findings, 2 usage
// or I/O error. Findings print as `path:line: [check] message` on
// stdout; the summary goes to stderr.
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "driver.hpp"

namespace {

int usage(std::ostream& out, int status) {
  out << "usage: intox_lint [--root DIR] [--baseline FILE] [--check NAME]...\n"
         "                  [--list-checks] [PATH...]\n"
         "\n"
         "Scans PATHs (default: src bench tests, relative to\n"
         "--root) for violations of the project's determinism, invariant,\n"
         "metrics, and header conventions. Suppress a finding with\n"
         "`// intox-lint: allow(<check>)  -- justification` on the same or\n"
         "preceding line; a suppression without the `-- justification`\n"
         "trailer is itself a finding.\n";
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  intox::lint::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "intox_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--list-checks") {
      for (const std::string& c : intox::lint::check_names())
        std::cout << c << "\n";
      return 0;
    } else if (arg == "--root") {
      opts.root = next_value("--root");
    } else if (arg == "--baseline") {
      opts.baseline_path = next_value("--baseline");
    } else if (arg == "--check") {
      opts.only_checks.push_back(next_value("--check"));
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "intox_lint: unknown option: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      opts.paths.push_back(arg);
    }
  }

  intox::lint::RunResult result;
  try {
    result = intox::lint::run_lint(opts);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  intox::lint::print_findings(std::cout, result.findings);
  std::cerr << "intox_lint: " << result.findings.size() << " finding"
            << (result.findings.size() == 1 ? "" : "s") << " ("
            << result.suppressed << " suppressed, " << result.baselined.size()
            << " baselined) across " << result.files_scanned << " files\n";
  return result.findings.empty() ? 0 : 1;
}
