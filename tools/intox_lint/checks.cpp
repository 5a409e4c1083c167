#include "checks.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <regex>
#include <string_view>

namespace intox::lint {
namespace {

// ---------------------------------------------------------------------------
// determinism

// Any appearance of these identifiers is a wall-clock / entropy read
// (or a type whose only purpose is one).
constexpr std::array<std::string_view, 8> kBannedIdentifiers = {
    "random_device",   "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday",    "clock_gettime", "timespec_get", "srand",
};

// Banned only as calls: `time` and `clock` are common member / variable
// names (sim/time.hpp), so a bare identifier is fine — `time(...)` as a
// free or std-qualified call is not.
constexpr std::array<std::string_view, 5> kBannedCalls = {
    "rand", "time", "clock", "localtime", "gmtime",
};

// ---------------------------------------------------------------------------
// invariant

constexpr std::array<std::string_view, 11> kAssignmentOps = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

// Methods that mutate their receiver; calling one inside an
// INTOX_INVARIANT condition makes behavior depend on whether the
// invariant is compiled in.
constexpr std::array<std::string_view, 26> kMutatingMethods = {
    "push",         "push_back",  "push_front", "pop",
    "pop_back",     "pop_front",  "insert",     "erase",
    "clear",        "reset",      "emplace",    "emplace_back",
    "emplace_front", "resize",    "assign",     "swap",
    "store",        "fetch_add",  "fetch_sub",  "exchange",
    "compare_exchange_weak", "compare_exchange_strong",
    "advance",      "consume",    "shuffle",    "merge",
};

template <typename Arr>
bool contains(const Arr& arr, std::string_view s) {
  return std::find(arr.begin(), arr.end(), s) != arr.end();
}

// Keywords the lexer emits as identifiers but that can never be a
// scope qualifier or declaration specifier before a banned call
// (`return ::time(0)` is a global-scope libc call, not `X::time`).
constexpr std::array<std::string_view, 12> kNonQualifierKeywords = {
    "return", "if",    "while", "for",    "do",  "else",
    "case",   "throw", "new",   "delete", "and", "or"};

bool is_integer_literal(const Token& t) {
  if (t.kind != TokenKind::kNumber) return false;
  const std::string& s = t.text;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) return true;
  return s.find('.') == std::string::npos &&
         s.find('e') == std::string::npos && s.find('E') == std::string::npos;
}

std::string strip_spaces(const std::string& s) {
  std::string out;
  for (char c : s)
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  return out;
}

const Token* prev_tok(const TokenStream& toks, std::size_t i) {
  return i > 0 ? &toks[i - 1] : nullptr;
}
const Token* next_tok(const TokenStream& toks, std::size_t i) {
  return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
}

void check_determinism(const FileClass& fc, const TokenStream& toks,
                       std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    if (contains(kBannedIdentifiers, t.text)) {
      out.push_back({fc.rel_path, t.line, "determinism",
                     "'" + t.text +
                         "' reads entropy or a clock; trial results must be "
                         "a pure function of the seed (use sim::Rng / "
                         "sim::Time)"});
      continue;
    }

    if (contains(kBannedCalls, t.text)) {
      const Token* next = next_tok(toks, i);
      if (!next || next->text != "(") continue;
      const Token* prev = prev_tok(toks, i);
      if (prev) {
        // Member call on a project object (`sched.time(...)`) is fine.
        if (prev->text == "." || prev->text == "->") continue;
        // A declaration (`Duration time(...)`) is fine — but a keyword
        // before the name (`return time(0)`) is still a call.
        if ((prev->kind == TokenKind::kIdentifier &&
             !contains(kNonQualifierKeywords, prev->text)) ||
            prev->text == ">" || prev->text == "*" || prev->text == "&" ||
            prev->text == "~")
          continue;
        // Qualified call: `std::time(` and `::time(` are the libc
        // functions; `OtherScope::time(` is not.
        if (prev->text == "::") {
          const Token* qual = i >= 2 ? &toks[i - 2] : nullptr;
          if (qual && qual->kind == TokenKind::kIdentifier &&
              qual->text != "std" &&
              !contains(kNonQualifierKeywords, qual->text))
            continue;
        }
      }
      out.push_back({fc.rel_path, t.line, "determinism",
                     "call to '" + t.text +
                         "()' reads the wall clock or libc PRNG; derive all "
                         "randomness and time from the simulation"});
      continue;
    }

    // Literal-seeded Rng in src/: `Rng(42)`, `Rng{42}`, `Rng rng(42)`.
    if (fc.in_src && t.text == "Rng") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier)
        ++j;  // declared variable name
      if (j + 2 < toks.size() &&
          (toks[j].text == "(" || toks[j].text == "{") &&
          is_integer_literal(toks[j + 1]) &&
          (toks[j + 2].text == ")" || toks[j + 2].text == "}")) {
        out.push_back({fc.rel_path, toks[j + 1].line, "determinism",
                       "Rng seeded with literal " + toks[j + 1].text +
                           " in src/; seeds must arrive via Rng::fork or an "
                           "explicit config so sharding stays reproducible"});
      }
    }
  }
}

void check_invariants(const FileClass& fc, const TokenStream& toks,
                      std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        toks[i].text != "INTOX_INVARIANT" || toks[i + 1].text != "(")
      continue;
    // Walk the first macro argument (the condition): everything up to
    // the first top-level comma or the closing paren.
    int depth = 1;
    for (std::size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
        if (depth == 0) break;
        if (depth == 1 && t.text == ",") break;

        if (t.text == "++" || t.text == "--") {
          out.push_back(
              {fc.rel_path, t.line, "invariant",
               "'" + t.text +
                   "' inside an INTOX_INVARIANT condition; the condition "
                   "vanishes under -DINTOX_INVARIANTS_DISABLED, so it must "
                   "be side-effect-free"});
        } else if (contains(kAssignmentOps, t.text)) {
          out.push_back(
              {fc.rel_path, t.line, "invariant",
               "assignment ('" + t.text +
                   "') inside an INTOX_INVARIANT condition; did you mean a "
                   "comparison? The condition compiles out when invariants "
                   "are disabled"});
        } else if ((t.text == "." || t.text == "->") && j + 2 < toks.size() &&
                   toks[j + 1].kind == TokenKind::kIdentifier &&
                   contains(kMutatingMethods, toks[j + 1].text) &&
                   toks[j + 2].text == "(") {
          out.push_back(
              {fc.rel_path, toks[j + 1].line, "invariant",
               "call to mutating method '" + toks[j + 1].text +
                   "()' inside an INTOX_INVARIANT condition; hoist the call "
                   "out so disabled builds behave identically"});
        }
      }
    }
  }
}

const std::regex& metric_name_regex() {
  // family.name[.more]: lowercase dotted components, digits and
  // underscores allowed after the leading letter.
  static const std::regex re(
      R"(^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$)");
  return re;
}

constexpr std::array<std::string_view, 4> kRegistrationMethods = {
    "counter", "gauge", "histogram", "register_external_counter"};

void check_headers(const FileClass& fc, const TokenStream& toks,
                   std::vector<Finding>& out) {
  if (!fc.is_header) return;
  bool has_pragma_once = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPreprocessor) {
      const std::string flat = strip_spaces(t.text);
      if (flat == "#pragmaonce") has_pragma_once = true;
      if (fc.in_src && flat.find("#include<iostream>") == 0) {
        out.push_back(
            {fc.rel_path, t.line, "header",
             "<iostream> included from a src/ header; hot-path translation "
             "units must not inherit stream globals — include it in the .cpp "
             "that actually prints"});
      }
    } else if (t.kind == TokenKind::kIdentifier && t.text == "using" &&
               i + 1 < toks.size() &&
               toks[i + 1].kind == TokenKind::kIdentifier &&
               toks[i + 1].text == "namespace") {
      out.push_back({fc.rel_path, t.line, "header",
                     "'using namespace' in a header leaks into every "
                     "includer; qualify names or alias them instead"});
    }
  }
  if (!has_pragma_once) {
    out.push_back({fc.rel_path, 1, "header", "header is missing #pragma once"});
  }
}

}  // namespace

FileClass classify(const std::string& rel_path) {
  FileClass fc;
  fc.rel_path = rel_path;
  auto starts_with = [&](std::string_view prefix) {
    return rel_path.rfind(prefix, 0) == 0;
  };
  fc.in_src = starts_with("src/");
  fc.in_bench = starts_with("bench/");
  fc.in_tests = starts_with("tests/");
  auto ends_with = [&](std::string_view suffix) {
    return rel_path.size() >= suffix.size() &&
           rel_path.compare(rel_path.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
  };
  fc.is_header = ends_with(".hpp") || ends_with(".h");
  return fc;
}

const std::vector<std::string>& check_names() {
  static const std::vector<std::string> names = {
      "determinism", "invariant", "metrics", "header", "pragma"};
  return names;
}

void Checker::scan_file(const FileClass& fc, const TokenStream& toks,
                        std::vector<Finding>& out) {
  // The invariant macro's own definition (and its doc examples) live in
  // src/validate/invariant.hpp; every other check still applies there.
  const bool is_macro_home = fc.rel_path == "src/validate/invariant.hpp";

  if (fc.in_src || fc.in_bench) check_determinism(fc, toks, out);
  if (!is_macro_home) check_invariants(fc, toks, out);
  check_headers(fc, toks, out);

  // metrics: record registration sites; duplicates resolve in finish().
  if (fc.in_src || fc.in_bench) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier ||
          !contains(kRegistrationMethods, t.text))
        continue;
      const Token* prev = prev_tok(toks, i);
      if (!prev || (prev->text != "." && prev->text != "->")) continue;
      if (toks[i + 1].text != "(" ||
          toks[i + 2].kind != TokenKind::kString)
        continue;
      const std::string& name = toks[i + 2].text;
      if (!std::regex_match(name, metric_name_regex())) {
        out.push_back(
            {fc.rel_path, toks[i + 2].line, "metrics",
             "metric name \"" + name +
                 "\" does not match the family.name grammar "
                 "(lowercase dotted components: ^[a-z][a-z0-9_]*(\\.[a-z]"
                 "[a-z0-9_]*)+$)"});
      }
      metric_sites_[name].push_back({fc.rel_path, toks[i + 2].line});
    }
  }
}

void Checker::finish(std::vector<Finding>& out) {
  for (const auto& [name, sites] : metric_sites_) {
    if (sites.size() < 2) continue;
    for (std::size_t i = 1; i < sites.size(); ++i) {
      out.push_back(
          {sites[i].path, sites[i].line, "metrics",
           "metric \"" + name + "\" is already registered at " +
               sites[0].path + ":" + std::to_string(sites[0].line) +
               "; registration sites must be unique (suppress with a "
               "justified pragma if the metrics are intentionally shared)"});
    }
  }
}

}  // namespace intox::lint
