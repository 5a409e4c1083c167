#include "driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "lexer.hpp"

namespace fs = std::filesystem;

namespace intox::lint {
namespace {

const std::vector<std::string> kDefaultPaths = {"src", "bench", "tests"};

bool has_lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

// Directories that must never be scanned: build trees and the lint
// fixture corpus (which is known-bad on purpose and exercised by the
// tests with an explicit --root).
bool is_skipped_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == ".git" || name == "fixtures" ||
         name.rfind("build", 0) == 0;
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  std::string rel = p.lexically_relative(root).generic_string();
  if (rel.rfind("./", 0) == 0) rel = rel.substr(2);
  return rel;
}

std::vector<std::string> collect_files(const Options& opts,
                                       const fs::path& root) {
  const bool defaults = opts.paths.empty();
  const std::vector<std::string>& roots = defaults ? kDefaultPaths : opts.paths;
  std::vector<std::string> rel_files;
  for (const std::string& r : roots) {
    const fs::path base = root / r;
    if (fs::is_regular_file(base)) {
      rel_files.push_back(to_rel(base, root));
      continue;
    }
    if (!fs::is_directory(base)) {
      // A missing default directory is fine (a fixture mini-repo may
      // only have src/); a path the user named must exist.
      if (defaults) continue;
      throw std::runtime_error("intox_lint: no such file or directory: " +
                               base.string());
    }
    fs::recursive_directory_iterator it(base), end;
    for (; it != end; ++it) {
      if (it->is_directory() && is_skipped_dir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && has_lintable_extension(it->path()))
        rel_files.push_back(to_rel(it->path(), root));
    }
  }
  // Deterministic scan order => deterministic duplicate-metric "first
  // registration" attribution and output order.
  std::sort(rel_files.begin(), rel_files.end());
  rel_files.erase(std::unique(rel_files.begin(), rel_files.end()),
                  rel_files.end());
  return rel_files;
}

// line number (1-based) -> set of check names allowed on that line.
using SuppressionMap = std::map<int, std::set<std::string>>;

SuppressionMap parse_suppressions(const std::string& source,
                                  const std::string& rel_path,
                                  std::vector<Finding>& malformed) {
  static const std::regex re(R"(intox-lint:\s*allow\(([^)]*)\))");
  SuppressionMap out;
  std::istringstream in(source);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::smatch m;
    if (!std::regex_search(line, m, re)) continue;
    // A suppression must say why: `allow(check)  -- justification`.
    // Unexplained pragmas rot — nobody can tell later whether they are
    // still needed or were ever sound.
    static const std::regex why_re(R"(^\s*--\s*\S)");
    const std::string trailer = m.suffix().str();
    if (!std::regex_search(trailer, why_re)) {
      malformed.push_back(
          {rel_path, lineno, "pragma",
           "suppression has no justification; write allow(" + m[1].str() +
               ")  -- why this is safe here"});
      continue;
    }
    std::set<std::string> checks;
    std::istringstream list(m[1].str());
    std::string item;
    while (std::getline(list, item, ',')) {
      item.erase(0, item.find_first_not_of(" \t"));
      item.erase(item.find_last_not_of(" \t") + 1);
      if (item.empty()) continue;
      const auto& known = check_names();
      if (std::find(known.begin(), known.end(), item) == known.end()) {
        malformed.push_back({rel_path, lineno, "pragma",
                             "unknown check '" + item +
                                 "' in intox-lint pragma (see --list-checks)"});
        continue;
      }
      checks.insert(item);
    }
    if (!checks.empty()) out[lineno] = std::move(checks);
  }
  return out;
}

struct BaselineEntry {
  std::string path;
  std::string check;
  int allowed = 0;
  int used = 0;
};

std::vector<BaselineEntry> load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("intox_lint: cannot read baseline: " + path);
  }
  std::vector<BaselineEntry> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line.erase(0, line.find_first_not_of(" \t"));
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (line.empty()) continue;
    const auto last = line.rfind(':');
    const auto mid = last == std::string::npos ? std::string::npos
                                               : line.rfind(':', last - 1);
    if (mid == std::string::npos) {
      throw std::runtime_error("intox_lint: malformed baseline line " +
                               std::to_string(lineno) +
                               " (want path:check:count): " + line);
    }
    BaselineEntry e;
    e.path = line.substr(0, mid);
    e.check = line.substr(mid + 1, last - mid - 1);
    try {
      e.allowed = std::stoi(line.substr(last + 1));
    } catch (const std::exception&) {
      throw std::runtime_error("intox_lint: bad count in baseline line " +
                               std::to_string(lineno) + ": " + line);
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("intox_lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

RunResult run_lint(const Options& opts) {
  const fs::path root(opts.root);
  if (!fs::is_directory(root))
    throw std::runtime_error("intox_lint: root is not a directory: " +
                             opts.root);

  std::vector<BaselineEntry> baseline;
  if (!opts.baseline_path.empty())
    baseline = load_baseline(opts.baseline_path);

  RunResult result;
  Checker checker;
  std::vector<Finding> raw;

  struct FileState {
    SuppressionMap suppressions;
    std::set<int> used_pragma_lines;
  };
  std::map<std::string, FileState> files;

  for (const std::string& rel : collect_files(opts, root)) {
    const std::string source = read_file(root / rel);
    FileState& st = files[rel];
    st.suppressions = parse_suppressions(source, rel, raw);
    checker.scan_file(classify(rel), cxxlex::tokenize(source), raw);
    ++result.files_scanned;
  }
  checker.finish(raw);

  auto check_enabled = [&](const std::string& check) {
    return opts.only_checks.empty() ||
           std::find(opts.only_checks.begin(), opts.only_checks.end(),
                     check) != opts.only_checks.end();
  };

  for (Finding& f : raw) {
    if (!check_enabled(f.check)) continue;
    // Per-line suppression: same line or the line directly above.
    if (f.check != "pragma") {
      FileState& st = files[f.path];
      bool suppressed = false;
      for (int line : {f.line, f.line - 1}) {
        auto it = st.suppressions.find(line);
        if (it != st.suppressions.end() && it->second.count(f.check)) {
          st.used_pragma_lines.insert(line);
          suppressed = true;
          break;
        }
      }
      if (suppressed) {
        ++result.suppressed;
        continue;
      }
    }
    // Baseline: consume an allowance if one is left.
    bool baselined = false;
    for (BaselineEntry& e : baseline) {
      if (e.path == f.path && e.check == f.check && e.used < e.allowed) {
        ++e.used;
        baselined = true;
        break;
      }
    }
    (baselined ? result.baselined : result.findings).push_back(std::move(f));
  }

  // Stale pragmas: a suppression that suppressed nothing is itself a
  // finding, so the checked-in baseline of pragmas cannot rot. Only
  // meaningful when every check ran — under --check filtering a pragma
  // for a disabled check would look stale.
  if (opts.only_checks.empty()) {
    for (auto& [path, st] : files) {
      for (const auto& [line, checks] : st.suppressions) {
        if (st.used_pragma_lines.count(line)) continue;
        std::string joined;
        for (const std::string& c : checks)
          joined += (joined.empty() ? "" : ", ") + c;
        result.findings.push_back(
            {path, line, "pragma",
             "suppression for '" + joined +
                 "' matches no finding; delete the stale pragma"});
      }
    }
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.check, a.message) <
                     std::tie(b.path, b.line, b.check, b.message);
            });
  return result;
}

void print_findings(std::ostream& out, const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.check << "] " << f.message
        << "\n";
  }
}

}  // namespace intox::lint
