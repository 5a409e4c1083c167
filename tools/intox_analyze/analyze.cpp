#include "analyze.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "lexer.hpp"

namespace fs = std::filesystem;

namespace intox::analyze {
namespace {

const std::vector<std::string> kDefaultPaths = {"src", "bench", "tests",
                                                "tools"};

bool is_cpp_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h";
}

// Directories that are never scanned: build trees and the fixture
// corpora (known-bad on purpose; the tests scan them with an explicit
// --root).
bool is_skipped_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == ".git" || name == "fixtures" ||
         name.rfind("build", 0) == 0;
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  return p.lexically_relative(root).generic_string();
}

// Repo-relative paths of every C++ file under the selected paths,
// sorted so scan order (and with it "first registration" attribution)
// is deterministic.
std::vector<std::string> collect_files(const Options& opts) {
  if (!fs::is_directory(opts.root)) {
    throw std::runtime_error("intox_analyze: root is not a directory: " +
                             opts.root);
  }
  const fs::path root = fs::absolute(opts.root).lexically_normal();
  const bool defaults = opts.paths.empty();
  std::vector<std::string> out;
  for (const std::string& s : defaults ? kDefaultPaths : opts.paths) {
    const fs::path base = (root / s).lexically_normal();
    if (fs::is_regular_file(base)) {
      if (is_cpp_file(base)) out.push_back(to_rel(base, root));
      continue;
    }
    if (!fs::is_directory(base)) {
      // A missing default directory is fine (a fixture mini-repo may
      // only have src/); a path the user named must exist.
      if (defaults) continue;
      throw std::runtime_error("intox_analyze: no such file or directory: " +
                               (fs::path(opts.root) / s).string());
    }
    fs::recursive_directory_iterator it(base), end;
    for (; it != end; ++it) {
      if (it->is_directory() && is_skipped_dir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && is_cpp_file(it->path()))
        out.push_back(to_rel(it->path(), root));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // A gate that scanned nothing proves nothing: a wrong --root must not
  // pass as a clean run.
  if (out.empty()) {
    throw std::runtime_error("intox_analyze: no C++ files to scan under " +
                             opts.root);
  }
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in)
    throw std::runtime_error("intox_analyze: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Reads and tokenizes every selected file once, in scan order, and
// indexes it; `visit` sees each file before it is indexed.
Index scan(const Options& opts,
           const std::function<void(const std::string& rel,
                                    const std::string& source,
                                    const cxxlex::TokenStream& toks)>& visit) {
  Index index;
  for (const std::string& rel : collect_files(opts)) {
    const std::string source = read_file(fs::path(opts.root) / rel);
    const cxxlex::TokenStream toks = cxxlex::tokenize(source);
    if (visit) visit(rel, source, toks);
    index_file(rel, source, toks, index);
  }
  finalize_index(index);
  return index;
}

bool is_check(const std::string& name) {
  const auto& known = check_names();
  return std::find(known.begin(), known.end(), name) != known.end();
}

// line -> the check a pragma on that line allows.
using SuppressionMap = std::map<int, std::string>;

SuppressionMap parse_suppressions(const std::string& source,
                                  const std::string& rel_path,
                                  std::vector<Finding>& malformed) {
  static const std::regex re(R"(intox-analyze:\s*allow\(([^)]*)\))");
  SuppressionMap out;
  std::istringstream in(source);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::smatch m;
    if (!std::regex_search(line, m, re)) continue;
    const std::string body = m[1].str();
    const auto comma = body.find(',');
    std::string check = body.substr(0, comma);
    check.erase(0, check.find_first_not_of(" \t"));
    check.erase(check.find_last_not_of(" \t") + 1);
    const bool justified =
        comma != std::string::npos &&
        body.find_first_not_of(" \t", comma + 1) != std::string::npos;
    if (!is_check(check)) {
      malformed.push_back({rel_path, lineno, "pragma",
                           "unknown check '" + check +
                               "' in pragma (see --list-checks)"});
    } else if (!justified) {
      malformed.push_back(
          {rel_path, lineno, "pragma",
           "suppression for '" + check +
               "' has no justification; write allow(" + check +
               ", why this is safe here)"});
    } else {
      out[lineno] = check;
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& check_names() {
  static const std::vector<std::string> kNames = {
      "atomics", "determinism", "header", "metrics",
      "pragma",  "sigsafe",     "taint"};
  return kNames;
}

Index build_index(const Options& opts) { return scan(opts, nullptr); }

RunResult run_analyze(const Options& opts, std::ostream& explain_out) {
  RunResult result;
  std::vector<Finding> raw;

  struct FileState {
    SuppressionMap suppressions;
    std::set<int> used_pragma_lines;
  };
  std::map<std::string, FileState> files;

  const Index index = scan(opts, [&](const std::string& rel,
                                     const std::string& source,
                                     const cxxlex::TokenStream& toks) {
    files[rel].suppressions = parse_suppressions(source, rel, raw);
    check_tokens(rel, toks, raw);
  });
  result.files_scanned = static_cast<int>(files.size());

  auto explain_for = [&](const std::string& check) -> std::ostream* {
    return opts.explain_check == check ? &explain_out : nullptr;
  };
  check_metrics(index, raw);
  check_sigsafe(index, raw, explain_for("sigsafe"));
  check_taint(index, raw, explain_for("taint"));
  check_atomics(index, raw, explain_for("atomics"));

  auto check_enabled = [&](const std::string& check) {
    return opts.only_checks.empty() ||
           std::find(opts.only_checks.begin(), opts.only_checks.end(),
                     check) != opts.only_checks.end();
  };

  for (Finding& f : raw) {
    if (!check_enabled(f.check)) continue;
    if (f.check != "pragma") {
      FileState& st = files[f.path];
      const auto allowed = [&](int line) {
        const auto it = st.suppressions.find(line);
        return it != st.suppressions.end() && it->second == f.check;
      };
      const int line = allowed(f.line) ? f.line : f.line - 1;
      if (allowed(line)) {
        st.used_pragma_lines.insert(line);
        ++result.suppressed;
        continue;
      }
    }
    result.findings.push_back(std::move(f));
  }

  // Stale pragmas rot the suppression inventory; only meaningful when
  // every check ran.
  if (opts.only_checks.empty()) {
    for (auto& [path, st] : files) {
      for (const auto& [line, check] : st.suppressions) {
        if (st.used_pragma_lines.count(line)) continue;
        result.findings.push_back(
            {path, line, "pragma",
             "suppression for '" + check +
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

}  // namespace intox::analyze
