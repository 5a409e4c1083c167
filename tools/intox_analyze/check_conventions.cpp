#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <regex>
#include <string_view>

#include "checks.hpp"

namespace intox::analyze {
namespace {

using cxxlex::Token;
using cxxlex::TokenKind;
using cxxlex::TokenStream;

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& rel_path) {
  return ends_with(rel_path, ".hpp") || ends_with(rel_path, ".h");
}

// ---------------------------------------------------------------------------
// determinism

// Any appearance of these identifiers is a wall-clock / entropy read
// (or a type whose only purpose is one).
constexpr std::array<std::string_view, 8> kBannedIdentifiers = {
    "random_device",   "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday",    "clock_gettime", "timespec_get", "srand",
};

// Banned only as calls: `time`, `clock` and `random` are common member
// and variable names (sim/time.hpp), so a bare identifier is fine —
// `time(...)` as a free or std-qualified call is not.
constexpr std::array<std::string_view, 13> kBannedCalls = {
    "rand",    "rand_r",    "random",    "srandom",    "drand48",
    "lrand48", "mrand48",   "getrandom", "getentropy", "time",
    "clock",   "localtime", "gmtime",
};

// Mersenne Twister engines, `*_distribution` and `std::shuffle` draw
// around sim::Rng, so only src/sim/rng.{hpp,cpp} may name them.
constexpr std::array<std::string_view, 3> kBannedEngines = {
    "mt19937", "mt19937_64", "mersenne_twister_engine"};
constexpr std::string_view kDistributionSuffix = "_distribution";

template <typename Arr>
bool contains(const Arr& arr, std::string_view s) {
  return std::find(arr.begin(), arr.end(), s) != arr.end();
}

bool in_rng_unit(const std::string& rel_path) {
  return rel_path == "src/sim/rng.hpp" || rel_path == "src/sim/rng.cpp";
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

// True when toks[i] is called as a free or std-qualified function, not
// as a member (`sched.time(...)`), in a declaration or from another scope.
bool is_free_call(const TokenStream& toks, std::size_t i) {
  const Token* next = next_tok(toks, i);
  if (!next || next->text != "(") return false;
  const Token* prev = prev_tok(toks, i);
  if (!prev) return true;
  if (prev->text == "." || prev->text == "->") return false;
  // A declaration (`Duration time(...)`) is not a call — but a keyword
  // before the name (`return time(0)`) still is.
  if (prev->kind == TokenKind::kIdentifier)
    return contains(kNonQualifierKeywords, prev->text);
  if (prev->text == ">" || prev->text == "*" || prev->text == "&" ||
      prev->text == "~")
    return false;
  // Qualified call: `std::time(` and `::time(` are the libc functions;
  // `OtherScope::time(` is not.
  if (prev->text != "::" || i < 2) return true;
  const Token& qual = toks[i - 2];
  return qual.kind != TokenKind::kIdentifier || qual.text == "std" ||
         contains(kNonQualifierKeywords, qual.text);
}

void check_determinism(const std::string& rel_path, const TokenStream& toks,
                       std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    if (contains(kBannedIdentifiers, t.text)) {
      out.push_back({rel_path, t.line, "determinism",
                     "'" + t.text +
                         "' reads entropy or a clock; trial results must be "
                         "a pure function of the seed (use sim::Rng / "
                         "sim::Time)"});
      continue;
    }

    if (contains(kBannedCalls, t.text)) {
      if (!is_free_call(toks, i)) continue;
      out.push_back({rel_path, t.line, "determinism",
                     "call to '" + t.text +
                         "()' reads the wall clock or ambient randomness; "
                         "derive all randomness and time from the "
                         "simulation"});
      continue;
    }

    const bool draws = contains(kBannedEngines, t.text) ||
                       ends_with(t.text, kDistributionSuffix) ||
                       (t.text == "shuffle" && is_free_call(toks, i));
    if (draws && !in_rng_unit(rel_path)) {
      out.push_back({rel_path, t.line, "determinism",
                     "'" + t.text +
                         "' draws outside sim::Rng; every draw goes through "
                         "a forked sim::Rng, whose engine and distributions "
                         "live only in src/sim/rng.{hpp,cpp}"});
      continue;
    }

    // Literal-seeded Rng in src/: `Rng(42)`, `Rng{42}`, `Rng rng(42)`.
    if (starts_with(rel_path, "src/") && t.text == "Rng") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier)
        ++j;  // declared variable name
      if (j + 2 < toks.size() &&
          (toks[j].text == "(" || toks[j].text == "{") &&
          is_integer_literal(toks[j + 1]) &&
          (toks[j + 2].text == ")" || toks[j + 2].text == "}")) {
        out.push_back({rel_path, toks[j + 1].line, "determinism",
                       "Rng seeded with literal " + toks[j + 1].text +
                           " in src/; seeds must arrive via Rng::fork or an "
                           "explicit config so sharding stays reproducible"});
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

void check_headers(const std::string& rel_path, const TokenStream& toks,
                   std::vector<Finding>& out) {
  bool has_pragma_once = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPreprocessor) {
      const std::string flat = strip_spaces(t.text);
      if (flat == "#pragmaonce") has_pragma_once = true;
      if (starts_with(rel_path, "src/") &&
          flat.find("#include<iostream>") == 0) {
        out.push_back(
            {rel_path, t.line, "header",
             "<iostream> included from a src/ header; hot-path translation "
             "units must not inherit stream globals — include it in the .cpp "
             "that actually prints"});
      }
    } else if (t.kind == TokenKind::kIdentifier && t.text == "using" &&
               i + 1 < toks.size() &&
               toks[i + 1].kind == TokenKind::kIdentifier &&
               toks[i + 1].text == "namespace") {
      out.push_back({rel_path, t.line, "header",
                     "'using namespace' in a header leaks into every "
                     "includer; qualify names or alias them instead"});
    }
  }
  if (!has_pragma_once) {
    out.push_back({rel_path, 1, "header", "header is missing #pragma once"});
  }
}

}  // namespace

bool in_product_code(const std::string& rel_path) {
  return starts_with(rel_path, "src/") || starts_with(rel_path, "bench/");
}

void check_tokens(const std::string& rel_path, const TokenStream& toks,
                  std::vector<Finding>& out) {
  if (in_product_code(rel_path)) check_determinism(rel_path, toks, out);
  if (is_header(rel_path)) check_headers(rel_path, toks, out);
}

void check_metrics(const Index& index, std::vector<Finding>& out) {
  // name -> every product-code registration site, in scan order.
  std::map<std::string, std::vector<const MetricReg*>> sites;
  for (const MetricReg& m : index.metric_regs) {
    if (!in_product_code(m.file)) continue;
    if (!std::regex_match(m.name, metric_name_regex())) {
      out.push_back(
          {m.file, m.line, "metrics",
           "metric name \"" + m.name +
               "\" does not match the family.name grammar "
               "(lowercase dotted components: ^[a-z][a-z0-9_]*(\\.[a-z]"
               "[a-z0-9_]*)+$)"});
    }
    sites[m.name].push_back(&m);
  }
  for (const auto& [name, regs] : sites) {
    for (std::size_t i = 1; i < regs.size(); ++i) {
      out.push_back(
          {regs[i]->file, regs[i]->line, "metrics",
           "metric \"" + name + "\" is already registered at " +
               regs[0]->file + ":" + std::to_string(regs[0]->line) +
               "; registration sites must be unique (suppress with a "
               "justified pragma if the metrics are intentionally shared)"});
    }
  }
}

}  // namespace intox::analyze
