#include "index.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>

#include "token.hpp"

namespace intox::analyze {

using cxxlex::Token;
using cxxlex::TokenKind;
using cxxlex::TokenStream;

namespace {

bool is_kw(const Token& t, const char* kw) {
  return t.kind == TokenKind::kIdentifier && t.text == kw;
}
bool is_punct(const Token& t, const char* p) {
  return t.kind == TokenKind::kPunct && t.text == p;
}
bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }

// Keywords that look like `name (` but never open a function definition
// or denote a call target.
const std::array<const char*, 16> kControlKeywords = {
    "if",     "for",    "while",  "switch",   "catch",  "return",
    "sizeof", "alignof", "alignas", "decltype", "typeid", "co_return",
    "co_await", "co_yield", "case", "do"};

bool is_control_keyword(const std::string& s) {
  return std::find_if(kControlKeywords.begin(), kControlKeywords.end(),
                      [&](const char* k) { return s == k; }) !=
         kControlKeywords.end();
}

// Functional-cast targets recorded as calls would only be noise:
// primitive and fixed-width type names are never check-relevant callees.
bool is_type_name(const std::string& s) {
  static const std::array<const char*, 24> kTypes = {
      "int",      "char",     "bool",     "float",    "double",   "long",
      "short",    "unsigned", "signed",   "void",     "size_t",   "ssize_t",
      "off_t",    "time_t",   "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uintptr_t", "intptr_t"};
  std::string base = s;
  if (base.rfind("std::", 0) == 0) base = base.substr(5);
  return std::find_if(kTypes.begin(), kTypes.end(), [&](const char* k) {
           return base == k;
         }) != kTypes.end();
}

bool is_unordered_type_name(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

// Qualified names that allocate or may throw: sigsafe flags a mention
// even when it is not called.
bool is_watched_mention(const std::string& chain) {
  static const std::array<const char*, 7> kWatched = {
      "std::string",       "std::cout",          "std::cerr",
      "std::clog",         "std::ostringstream", "std::stringstream",
      "std::istringstream"};
  return std::find_if(kWatched.begin(), kWatched.end(), [&](const char* k) {
           return chain == k;
         }) != kWatched.end();
}

bool is_atomic_op_name(const std::string& s) {
  return s == "load" || s == "store" || s == "exchange" ||
         s == "fetch_add" || s == "fetch_sub" || s == "fetch_or" ||
         s == "fetch_and" || s == "fetch_xor" ||
         s == "compare_exchange_weak" || s == "compare_exchange_strong";
}

bool is_lock_guard_type(const std::string& last) {
  return last == "lock_guard" || last == "unique_lock" ||
         last == "scoped_lock";
}

std::string last_component(const std::string& chain) {
  const auto pos = chain.rfind("::");
  return pos == std::string::npos ? chain : chain.substr(pos + 2);
}

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock } kind;
  std::string name;  // namespace / class name; "" for anonymous
  int fn = -1;       // index into Index::functions for kFunction
};

class Indexer {
 public:
  Indexer(const std::string& rel, const TokenStream& toks, Index& out)
      : rel_(rel), toks_(toks), out_(out) {}

  void run() {
    while (i_ < toks_.size()) {
      if (current_fn() >= 0) {
        scan_body_token();
      } else {
        scan_decl_token();
      }
    }
    // Unterminated scopes (lexer tolerance): close any function so its
    // end_line is valid.
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kFunction) {
        out_.functions[s.fn].end_line =
            toks_.empty() ? 0 : toks_.back().line;
      }
    }
  }

 private:
  const Token& tok(std::size_t j) const { return toks_[j]; }
  bool at_end(std::size_t j) const { return j >= toks_.size(); }

  int current_fn() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return it->fn;
      if (it->kind != Scope::kBlock) return -1;
    }
    return -1;
  }

  std::string enclosing_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
      if (it->kind == Scope::kNamespace) break;
    }
    return "";
  }

  std::string qualified_prefix() const {
    std::string q;
    for (const Scope& s : scopes_) {
      if ((s.kind == Scope::kNamespace || s.kind == Scope::kClass) &&
          !s.name.empty()) {
        if (!q.empty()) q += "::";
        q += s.name;
      }
    }
    return q;
  }

  // ----- balanced-token helpers -------------------------------------

  // j at '('; returns index one past the matching ')'.
  std::size_t skip_parens(std::size_t j) const {
    int depth = 0;
    for (; !at_end(j); ++j) {
      if (is_punct(tok(j), "(")) ++depth;
      if (is_punct(tok(j), ")") && --depth == 0) return j + 1;
    }
    return j;
  }

  // j at '{'; returns index one past the matching '}'.
  std::size_t skip_braces(std::size_t j) const {
    int depth = 0;
    for (; !at_end(j); ++j) {
      if (is_punct(tok(j), "{")) ++depth;
      if (is_punct(tok(j), "}") && --depth == 0) return j + 1;
    }
    return j;
  }

  // j at '<'; returns one past the matching '>'. `>>` closes two levels.
  // Bails (returns j) if the angles do not balance within the statement,
  // so a stray `a < b` comparison cannot eat the rest of the file.
  std::size_t skip_angles(std::size_t j) const {
    int depth = 0;
    for (std::size_t k = j; !at_end(k); ++k) {
      const Token& t = tok(k);
      if (is_punct(t, "<")) ++depth;
      else if (is_punct(t, "<<")) depth += 2;
      else if (is_punct(t, ">") && --depth <= 0) return k + 1;
      else if (is_punct(t, ">>")) {
        depth -= 2;
        if (depth <= 0) return k + 1;
      } else if (is_punct(t, ";") || is_punct(t, "{")) {
        return j;  // not template arguments after all
      }
    }
    return j;
  }

  // Reads a qualified identifier chain starting at j ("std :: mutex" ->
  // "std::mutex"); sets *end to one past the chain.
  std::string read_chain(std::size_t j, std::size_t* end) const {
    std::string chain;
    if (!at_end(j) && is_punct(tok(j), "::")) {
      chain = "::";
      ++j;
    }
    while (!at_end(j) && is_ident(tok(j))) {
      chain += tok(j).text;
      if (!at_end(j + 1) && is_punct(tok(j + 1), "::") && !at_end(j + 2) &&
          is_ident(tok(j + 2))) {
        chain += "::";
        j += 2;
      } else {
        ++j;
        break;
      }
    }
    *end = j;
    return chain;
  }

  // Walks backward from the token *before* `chain_start` to recover the
  // receiver of a member call: `ring.head` in `ring.head.load(...)`.
  // Returns "" when the chain is not a member access.
  std::string receiver_before(std::size_t chain_start) const {
    if (chain_start < 2) return "";
    std::size_t j = chain_start - 1;
    if (!is_punct(tok(j), ".") && !is_punct(tok(j), "->")) return "";
    // Walk backward alternating component / accessor, so `return
    // g_x.load()` yields "g_x", never "returng_x".
    std::vector<std::string> parts;  // reversed
    parts.push_back(tok(j).text);
    --j;
    while (true) {
      // One component, ending at j.
      if (is_punct(tok(j), "]") || is_punct(tok(j), ")")) {
        // Balanced group, represented as "[]"/"()" so indexing cannot
        // merge distinct receivers.
        const char open = tok(j).text == "]" ? '[' : '(';
        const char close = tok(j).text[0];
        int depth = 0;
        while (true) {
          const std::string& txt = tok(j).text;
          if (txt.size() == 1 && txt[0] == close) ++depth;
          if (txt.size() == 1 && txt[0] == open && --depth == 0) break;
          if (j == 0) return "";
          --j;
        }
        parts.push_back(close == ']' ? "[]" : "()");
        // `arr[i]` / `get(x)`: the name belongs to the same component.
        if (j > 0 && is_ident(tok(j - 1)) &&
            !is_control_keyword(tok(j - 1).text)) {
          --j;
          parts.push_back(tok(j).text);
        }
      } else if (is_ident(tok(j)) && !is_control_keyword(tok(j).text) &&
                 tok(j).text != "delete" && tok(j).text != "new" &&
                 tok(j).text != "throw") {
        parts.push_back(tok(j).text);
      } else {
        return "";  // e.g. `(cond).x()` with no named receiver
      }
      // Continue only through an accessor.
      if (j == 0 || (!is_punct(tok(j - 1), ".") &&
                     !is_punct(tok(j - 1), "->") &&
                     !is_punct(tok(j - 1), "::"))) {
        break;
      }
      --j;
      parts.push_back(tok(j).text);
      if (j == 0) return "";
      --j;
    }
    std::string recv;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) recv += *it;
    // Drop the trailing accessor that led us here.
    if (recv.size() >= 2 && recv.compare(recv.size() - 2, 2, "->") == 0) {
      recv.resize(recv.size() - 2);
    } else if (!recv.empty() && recv.back() == '.') {
      recv.resize(recv.size() - 1);
    }
    return recv;
  }

  // Last named component of a receiver/argument expression:
  // "ring.head" -> "head"; "g_slots[idx]" -> "g_slots"; "this->mu_" ->
  // "mu_".
  static std::string base_name(const std::string& expr) {
    std::string s = expr;
    if (const auto b = s.find('['); b != std::string::npos) s.resize(b);
    std::size_t cut = 0;
    for (const char* sep : {"->", "."}) {
      if (const auto p = s.rfind(sep); p != std::string::npos) {
        cut = std::max(cut, p + std::strlen(sep));
      }
    }
    s = s.substr(cut);
    while (!s.empty() && (s.front() == '&' || s.front() == '*')) s.erase(0, 1);
    return s;
  }

  // Lock node name: member-looking names (trailing underscore per the
  // codebase convention, or explicit this->) are qualified with the
  // function's class so `mu_` of two classes never alias, while a
  // namespace-scope mutex keeps one name from free functions and
  // methods alike.
  std::string lock_node(const std::string& expr) const {
    std::string base = base_name(expr);
    const int f = current_fn();
    const std::string cls =
        f >= 0 ? out_.functions[f].cls : enclosing_class();
    const bool memberish = (!base.empty() && base.back() == '_') ||
                           expr.rfind("this->", 0) == 0;
    if (memberish && !cls.empty()) return cls + "::" + base;
    return base;
  }

  // ----- declaration-scope scanning ---------------------------------

  void scan_decl_token() {
    const Token& t = tok(i_);
    if (t.kind == TokenKind::kPreprocessor) {
      ++i_;
      return;
    }
    if (is_punct(t, "{")) {
      scopes_.push_back({Scope::kBlock, "", -1});
      ++i_;
      return;
    }
    if (is_punct(t, "}")) {
      if (!scopes_.empty()) scopes_.pop_back();
      ++i_;
      return;
    }
    if (is_kw(t, "namespace")) {
      parse_namespace();
      return;
    }
    if (is_kw(t, "class") || is_kw(t, "struct") || is_kw(t, "union")) {
      parse_class();
      return;
    }
    if (is_kw(t, "enum")) {
      parse_enum();
      return;
    }
    if (is_kw(t, "template")) {
      ++i_;
      if (!at_end(i_) && is_punct(tok(i_), "<")) i_ = skip_angles(i_);
      return;
    }
    if (is_kw(t, "using") || is_kw(t, "typedef")) {
      parse_alias();
      return;
    }
    if (is_ident(t) && is_unordered_type_name(last_component(t.text))) {
      note_unordered_decl(i_);
    }
    if (is_ident(t) || is_punct(t, "::")) {
      parse_declaration();
      return;
    }
    ++i_;
  }

  void parse_namespace() {
    std::size_t j = i_ + 1;
    std::string name;
    while (!at_end(j)) {
      if (is_ident(tok(j))) {
        if (!name.empty()) name += "::";
        name += tok(j).text;
        ++j;
      } else if (is_punct(tok(j), "::")) {
        ++j;
      } else {
        break;
      }
    }
    if (!at_end(j) && is_punct(tok(j), "{")) {
      // Anonymous namespaces are transparent in qualified names.
      scopes_.push_back({Scope::kNamespace, name, -1});
      i_ = j + 1;
      return;
    }
    // namespace alias or malformed: skip the statement.
    skip_statement(j);
  }

  void parse_class() {
    std::size_t j = i_ + 1;
    // Skip attributes / alignas.
    while (!at_end(j)) {
      if (is_punct(tok(j), "[") && !at_end(j + 1) &&
          is_punct(tok(j + 1), "[")) {
        int depth = 0;
        for (; !at_end(j); ++j) {
          if (is_punct(tok(j), "[")) ++depth;
          if (is_punct(tok(j), "]") && --depth == 0) {
            ++j;
            break;
          }
        }
      } else if (is_kw(tok(j), "alignas") && !at_end(j + 1) &&
                 is_punct(tok(j + 1), "(")) {
        j = skip_parens(j + 1);
      } else {
        break;
      }
    }
    std::string name;
    if (!at_end(j) && is_ident(tok(j))) {
      name = tok(j).text;
      ++j;
    }
    // Specialization arguments.
    if (!at_end(j) && is_punct(tok(j), "<")) j = skip_angles(j);
    if (!at_end(j) && is_kw(tok(j), "final")) ++j;
    if (!at_end(j) && is_punct(tok(j), ":")) {
      // Base clause: anything until the body brace.
      while (!at_end(j) && !is_punct(tok(j), "{") && !is_punct(tok(j), ";")) {
        if (is_punct(tok(j), "<")) {
          const std::size_t adv = skip_angles(j);
          j = adv == j ? j + 1 : adv;
        } else {
          ++j;
        }
      }
    }
    if (!at_end(j) && is_punct(tok(j), "{")) {
      scopes_.push_back({Scope::kClass, name, -1});
      i_ = j + 1;
      return;
    }
    // `struct stat st;`-style declaration or forward declaration: not a
    // class body. Re-scan from past the keyword as a plain declaration.
    ++i_;
  }

  void parse_enum() {
    std::size_t j = i_ + 1;
    if (!at_end(j) && (is_kw(tok(j), "class") || is_kw(tok(j), "struct")))
      ++j;
    if (!at_end(j) && is_ident(tok(j))) ++j;
    while (!at_end(j) && !is_punct(tok(j), "{") && !is_punct(tok(j), ";"))
      ++j;
    if (!at_end(j) && is_punct(tok(j), "{")) {
      i_ = skip_braces(j);
    } else {
      i_ = at_end(j) ? j : j + 1;
    }
  }

  void parse_alias() {
    // `using X = std::unordered_map<...>;` marks X as an unordered
    // alias; any later `X var` declaration marks `var` unordered.
    std::size_t j = i_ + 1;
    if (!at_end(j) && is_ident(tok(j)) && !is_kw(tok(j), "namespace")) {
      const std::string alias = tok(j).text;
      if (!at_end(j + 1) && is_punct(tok(j + 1), "=")) {
        std::size_t k = j + 2;
        std::size_t end = k;
        const std::string target = read_chain(k, &end);
        if (is_unordered_type_name(last_component(target))) {
          unordered_aliases_.insert(alias);
        }
      }
    }
    skip_statement(j);
  }

  // `std::unordered_map<...> name` (declaration at any scope): record
  // `name` as an unordered variable. `pos` is at the type's last
  // identifier (the unordered_* component).
  void note_unordered_decl(std::size_t pos) {
    std::size_t j = pos + 1;
    if (!at_end(j) && is_punct(tok(j), "<")) {
      const std::size_t adv = skip_angles(j);
      if (adv == j) return;
      j = adv;
    }
    while (!at_end(j) &&
           (is_punct(tok(j), "&") || is_punct(tok(j), "*") ||
            is_kw(tok(j), "const"))) {
      ++j;
    }
    if (!at_end(j) && is_ident(tok(j))) {
      out_.unordered_vars.insert(tok(j).text);
    }
  }

  // Parameters in the list delimited by tokens (open, close) that are
  // declared with an unordered type, or an alias of one, are unordered
  // variables too.
  void note_unordered_params(std::size_t open, std::size_t close) {
    for (std::size_t k = open + 1; k < close; ++k) {
      if (is_ident(tok(k)) && (is_unordered_type_name(tok(k).text) ||
                               unordered_aliases_.count(tok(k).text))) {
        note_unordered_decl(k);
      }
    }
  }

  // Statement at declaration scope that is not a namespace/class/enum:
  // a function definition, a function declaration, or a variable.
  void parse_declaration() {
    std::size_t j = i_;
    while (!at_end(j)) {
      const Token& t = tok(j);
      if (t.kind == TokenKind::kPreprocessor) {
        ++j;
        continue;
      }
      if (is_punct(t, ";")) {
        i_ = j + 1;
        return;
      }
      if (is_punct(t, "=")) {
        // Variable initializer (possibly a lambda): skip to the
        // statement end, braces balanced.
        skip_statement(j);
        return;
      }
      if (is_punct(t, "{")) {
        // Brace initializer at declaration scope.
        j = skip_braces(j);
        continue;
      }
      if (is_punct(t, "<")) {
        const std::size_t adv = skip_angles(j);
        j = adv == j ? j + 1 : adv;
        continue;
      }
      if (is_ident(t) && is_unordered_type_name(last_component(t.text))) {
        note_unordered_decl(j);
        ++j;
        continue;
      }
      if (is_ident(t) && unordered_aliases_.count(t.text) && !at_end(j + 1) &&
          is_ident(tok(j + 1))) {
        out_.unordered_vars.insert(tok(j + 1).text);
        j += 2;
        continue;
      }
      if (is_punct(t, "(")) {
        // Parameter list if the previous token names the declarator.
        std::string name_chain;
        if (j > i_) {
          if (is_ident(tok(j - 1)) && !is_control_keyword(tok(j - 1).text)) {
            // Walk the chain backward to its start.
            std::size_t start = j - 1;
            while (start >= 2 && is_punct(tok(start - 1), "::") &&
                   is_ident(tok(start - 2))) {
              start -= 2;
            }
            std::size_t end = start;
            name_chain = read_chain(start, &end);
          } else if (is_punct(tok(j - 1), "=") && j >= 2 &&
                     is_kw(tok(j - 2), "operator")) {
            name_chain = "operator=";
          } else if (tok(j - 1).kind == TokenKind::kPunct && j >= 2 &&
                     is_kw(tok(j - 2), "operator")) {
            name_chain = "operator" + tok(j - 1).text;
          }
        }
        const std::size_t after = skip_parens(j);
        if (name_chain.empty()) {
          j = after;
          continue;
        }
        note_unordered_params(j, after - 1);
        if (parse_function_tail(name_chain, tok(j).line, after)) return;
        j = after;
        continue;
      }
      ++j;
    }
    i_ = j;
  }

  // After a candidate `name(params)` at declaration scope, decide
  // whether a body follows. Returns true when it consumed up to and
  // including the body's opening brace (scope pushed) or the statement
  // end.
  bool parse_function_tail(const std::string& name_chain, int line,
                           std::size_t k) {
    while (!at_end(k)) {
      const Token& t = tok(k);
      if (is_kw(t, "const") || is_kw(t, "override") || is_kw(t, "final") ||
          is_kw(t, "mutable") || is_kw(t, "try")) {
        ++k;
        continue;
      }
      if (is_kw(t, "noexcept")) {
        ++k;
        if (!at_end(k) && is_punct(tok(k), "(")) k = skip_parens(k);
        continue;
      }
      if (is_punct(t, "&") || is_punct(t, "&&")) {
        ++k;
        continue;
      }
      if (is_punct(t, "[") && !at_end(k + 1) && is_punct(tok(k + 1), "[")) {
        int depth = 0;
        for (; !at_end(k); ++k) {
          if (is_punct(tok(k), "[")) ++depth;
          if (is_punct(tok(k), "]") && --depth == 0) {
            ++k;
            break;
          }
        }
        continue;
      }
      if (is_punct(t, "->")) {
        // Trailing return type: consume its tokens.
        ++k;
        while (!at_end(k) && !is_punct(tok(k), "{") &&
               !is_punct(tok(k), ";") && !is_punct(tok(k), "=")) {
          if (is_punct(tok(k), "<")) {
            const std::size_t adv = skip_angles(k);
            k = adv == k ? k + 1 : adv;
          } else if (is_punct(tok(k), "(")) {
            k = skip_parens(k);
          } else {
            ++k;
          }
        }
        continue;
      }
      if (is_punct(t, ":")) {
        // Constructor initializer list: `ident(...)` / `ident{...}`
        // entries until the body brace.
        ++k;
        while (!at_end(k)) {
          if (is_punct(tok(k), "(")) {
            k = skip_parens(k);
          } else if (is_punct(tok(k), "{")) {
            // A brace directly after an identifier or '>' is a
            // member brace-init; otherwise it is the body.
            const Token& prev = tok(k - 1);
            if (is_ident(prev) || is_punct(prev, ">")) {
              k = skip_braces(k);
            } else {
              break;
            }
          } else if (is_punct(tok(k), ";")) {
            break;
          } else {
            ++k;
          }
        }
        continue;
      }
      if (is_punct(t, "{")) {
        push_function(name_chain, line);
        i_ = k + 1;
        return true;
      }
      if (is_punct(t, ";")) {
        i_ = k + 1;  // declaration only
        return true;
      }
      if (is_punct(t, "=")) {
        // `= default;`, `= delete;`, or a variable initializer.
        skip_statement(k);
        return true;
      }
      if (is_punct(t, ",")) {
        skip_statement(k);  // `int a(1), b(2);`
        return true;
      }
      // Unknown macro-ish token between ')' and '{'; tolerate it.
      ++k;
    }
    i_ = k;
    return true;
  }

  void push_function(const std::string& name_chain, int line) {
    FunctionDef fn;
    const std::string prefix = qualified_prefix();
    std::string chain = name_chain;
    if (chain.rfind("::", 0) == 0) chain = chain.substr(2);
    fn.qname = prefix.empty() ? chain : prefix + "::" + chain;
    fn.name = last_component(chain);
    // Enclosing class: out-of-line `PointCache::has` carries it in the
    // chain; in-class definitions take it from the scope stack.
    if (const auto pos = chain.rfind("::"); pos != std::string::npos) {
      const std::string qual = chain.substr(0, pos);
      fn.cls = last_component(qual);
    } else {
      fn.cls = enclosing_class();
    }
    fn.file = rel_;
    fn.line = line;
    out_.functions.push_back(std::move(fn));
    scopes_.push_back(
        {Scope::kFunction, "", static_cast<int>(out_.functions.size() - 1)});
  }

  // Skips to one past the `;` ending the statement containing j,
  // balancing parens and braces (lambda bodies, brace initializers).
  void skip_statement(std::size_t j) {
    while (!at_end(j)) {
      if (is_punct(tok(j), "(")) {
        j = skip_parens(j);
      } else if (is_punct(tok(j), "{")) {
        j = skip_braces(j);
      } else if (is_punct(tok(j), ";")) {
        i_ = j + 1;
        return;
      } else if (is_punct(tok(j), "}")) {
        i_ = j;  // scope close belongs to the caller
        return;
      } else {
        ++j;
      }
    }
    i_ = j;
  }

  // ----- function-body scanning -------------------------------------

  FunctionDef& fn() { return out_.functions[current_fn()]; }

  void scan_body_token() {
    const Token& t = tok(i_);
    if (t.kind == TokenKind::kPreprocessor) {
      ++i_;
      return;
    }
    if (is_punct(t, "{")) {
      scopes_.push_back({Scope::kBlock, "", -1});
      ++i_;
      return;
    }
    if (is_punct(t, "}")) {
      if (scopes_.back().kind == Scope::kFunction) {
        out_.functions[scopes_.back().fn].end_line = t.line;
      }
      scopes_.pop_back();
      ++i_;
      return;
    }
    if (is_ident(t)) {
      if (t.text == "new") {
        fn().dangers.push_back({"new-expression", t.line});
        ++i_;
        return;
      }
      if (t.text == "throw") {
        fn().dangers.push_back({"throw", t.line});
        ++i_;
        return;
      }
      if (t.text == "for") {
        maybe_record_range_for();
        ++i_;
        return;
      }
      if (t.text == "sa_handler" || t.text == "sa_sigaction") {
        maybe_record_handler_assignment();
        ++i_;
        return;
      }
      if (t.text == "INTOX_INVARIANT") {
        // The macro's failure path calls validate::invariant_failed.
        fn().calls.push_back({"invariant_failed", "", t.line});
        ++i_;
        return;
      }
      if (is_unordered_type_name(last_component(t.text))) {
        note_unordered_decl(i_);
      }
      scan_chain();
      return;
    }
    ++i_;
  }

  void scan_chain() {
    const std::size_t start = i_;
    std::size_t end = start;
    const std::string chain = read_chain(start, &end);
    if (chain.empty()) {
      ++i_;
      return;
    }
    const int line = tok(start).line;
    const std::string last = last_component(chain);

    // `std::lock_guard<std::mutex> g(expr)` and friends.
    if (is_lock_guard_type(last)) {
      record_scoped_lock(end, line);
      i_ = end;
      return;
    }

    // Watched mentions are recorded whether or not the chain is called.
    if (is_watched_mention(chain)) fn().dangers.push_back({chain, line});
    // Body-local `std::unordered_map<...> m` declarations: the chain
    // starts at `std`, so the per-token check in scan_body_token never
    // sees the unordered_* component.
    if (is_unordered_type_name(last)) {
      note_unordered_decl(end - 1);
    } else if (unordered_aliases_.count(chain) && !at_end(end) &&
               is_ident(tok(end))) {
      out_.unordered_vars.insert(tok(end).text);
    }

    const bool called = !at_end(end) && is_punct(tok(end), "(");
    if (!called) {
      i_ = end;
      return;
    }

    if (is_control_keyword(last) || is_type_name(chain) ||
        chain == "static_cast" || chain == "dynamic_cast" ||
        chain == "const_cast" || chain == "reinterpret_cast") {
      i_ = end;
      return;
    }

    // Declarations like `SigWriter w(fd);`: the token before a genuine
    // call is never a plain identifier (those are `Type name(...)`).
    if (start > 0 && is_ident(tok(start - 1)) &&
        !is_control_keyword(tok(start - 1).text) &&
        !is_punct(tok(start - 1), "::")) {
      i_ = end;
      return;
    }
    if (start > 0 &&
        (is_punct(tok(start - 1), ">") || is_punct(tok(start - 1), "*"))) {
      i_ = end;
      return;
    }

    const std::string receiver = receiver_before(start);

    // Atomic member operations become AtomicOps, not call sites.
    if (!receiver.empty() && chain == last && is_atomic_op_name(last)) {
      record_atomic_op(receiver, last, end, line);
      i_ = end;
      return;
    }

    // A manual zero-argument `mu.lock()`.
    if (!receiver.empty() && chain == "lock" && skip_parens(end) == end + 2) {
      fn().lock_acquires.push_back({lock_node(receiver), line});
      i_ = end;
      return;
    }

    // Metric registrations.
    if (last == "counter" || last == "gauge") maybe_record_metric(end, line);

    // `::signal(SIGINT, handler)` registrations.
    if (last == "signal" || last == "bsd_signal") {
      maybe_record_signal_call(end);
    }

    fn().calls.push_back({chain, receiver, line});
    i_ = end;
  }

  void record_scoped_lock(std::size_t j, int line) {
    if (!at_end(j) && is_punct(tok(j), "<")) {
      const std::size_t adv = skip_angles(j);
      if (adv == j) return;
      j = adv;
    }
    if (at_end(j) || !is_ident(tok(j))) return;  // needs a variable name
    ++j;
    if (at_end(j) || !is_punct(tok(j), "(")) return;
    // Split the argument list at top-level commas; each names a lock.
    const std::size_t close = skip_parens(j) - 1;
    std::string arg;
    int depth = 0;
    for (std::size_t k = j + 1; k < close; ++k) {
      const Token& t = tok(k);
      if (t.kind == TokenKind::kPunct &&
          (t.text == "(" || t.text == "[" || t.text == "<"))
        ++depth;
      if (t.kind == TokenKind::kPunct &&
          (t.text == ")" || t.text == "]" || t.text == ">"))
        --depth;
      if (depth == 0 && is_punct(t, ",")) {
        if (!arg.empty()) fn().lock_acquires.push_back({lock_node(arg), line});
        arg.clear();
        continue;
      }
      arg += t.text;
    }
    if (!arg.empty()) fn().lock_acquires.push_back({lock_node(arg), line});
  }

  void record_atomic_op(const std::string& receiver, const std::string& op,
                        std::size_t open, int line) {
    const std::size_t close = skip_parens(open);
    std::string orders;
    for (std::size_t k = open; k < close; ++k) {
      if (is_ident(tok(k)) &&
          tok(k).text.rfind("memory_order_", 0) == 0) {
        if (!orders.empty()) orders += ",";
        orders += tok(k).text.substr(std::strlen("memory_order_"));
      }
    }
    AtomicOp a;
    a.receiver = base_name(receiver);
    a.op = op;
    a.implicit = orders.empty();
    a.order = orders.empty() ? "seq_cst" : orders;
    a.line = line;
    fn().atomic_ops.push_back(std::move(a));
  }

  void maybe_record_metric(std::size_t open, int line) {
    std::size_t j = open + 1;
    if (at_end(j)) return;
    if (tok(j).kind != TokenKind::kString) return;
    out_.metric_regs.push_back({tok(j).text, rel_, line});
  }

  void maybe_record_signal_call(std::size_t open) {
    // signal(SIG, handler): handler is the last identifier of the
    // second argument.
    const std::size_t close = skip_parens(open);
    int depth = 0;
    std::size_t comma = 0;
    for (std::size_t k = open; k < close; ++k) {
      const Token& t = tok(k);
      if (t.kind == TokenKind::kPunct && (t.text == "(" || t.text == "["))
        ++depth;
      if (t.kind == TokenKind::kPunct && (t.text == ")" || t.text == "]"))
        --depth;
      if (depth == 1 && is_punct(t, ",")) {
        comma = k;
        break;
      }
    }
    if (comma == 0) return;
    std::string handler;
    for (std::size_t k = comma + 1; k + 1 < close; ++k) {
      if (is_ident(tok(k))) handler = tok(k).text;
    }
    if (!handler.empty() && handler != "SIG_DFL" && handler != "SIG_IGN") {
      out_.signal_handlers.push_back(handler);
    }
  }

  void maybe_record_handler_assignment() {
    // `action.sa_handler = &crash_handler;` (or without '&').
    std::size_t j = i_ + 1;
    if (at_end(j) || !is_punct(tok(j), "=")) return;
    ++j;
    if (!at_end(j) && is_punct(tok(j), "&")) ++j;
    if (at_end(j) || !is_ident(tok(j))) return;
    const std::string handler = tok(j).text;
    if (handler != "SIG_DFL" && handler != "SIG_IGN") {
      out_.signal_handlers.push_back(handler);
    }
  }

  void maybe_record_range_for() {
    // for ( decl : expr ) — flag when expr's root variable is unordered.
    std::size_t j = i_ + 1;
    if (at_end(j) || !is_punct(tok(j), "(")) return;
    const std::size_t close = skip_parens(j);
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t k = j; k < close; ++k) {
      const Token& t = tok(k);
      if (t.kind == TokenKind::kPunct &&
          (t.text == "(" || t.text == "[" || t.text == "{"))
        ++depth;
      if (t.kind == TokenKind::kPunct &&
          (t.text == ")" || t.text == "]" || t.text == "}"))
        --depth;
      if (depth == 1 && is_punct(t, ":")) {
        colon = k;
        break;
      }
    }
    if (colon == 0) return;
    std::string root;
    for (std::size_t k = colon + 1; k + 1 < close; ++k) {
      if (is_ident(tok(k)) && !is_kw(tok(k), "this")) {
        root = tok(k).text;
        break;
      }
    }
    if (!root.empty()) {
      fn().unordered_iters.push_back({root, tok(i_).line});
    }
  }

  const std::string& rel_;
  const TokenStream& toks_;
  Index& out_;
  std::vector<Scope> scopes_;
  std::set<std::string> unordered_aliases_;
  std::size_t i_ = 0;
};

}  // namespace

void index_file(const std::string& rel_path, const std::string& source,
                const cxxlex::TokenStream& toks, Index& index) {
  const std::size_t first_fn = index.functions.size();
  Indexer(rel_path, toks, index).run();

  // Attach hot-lane markers from raw lines: a marker applies to the
  // function whose body contains it, else to the next function defined
  // after it.
  std::vector<int> marker_lines;
  {
    // Spelled in two parts so the analyzer does not mark its own
    // detector function when indexing tools/.
    const std::string marker = std::string("intox-analyze: ") + "hot-lane";
    std::istringstream in(source);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.find(marker) != std::string::npos) {
        marker_lines.push_back(lineno);
      }
    }
  }
  for (int m : marker_lines) {
    FunctionDef* best = nullptr;
    for (std::size_t f = first_fn; f < index.functions.size(); ++f) {
      FunctionDef& fn = index.functions[f];
      if (fn.line <= m && m <= fn.end_line) {
        // Innermost containing definition wins (nested classes).
        if (best == nullptr || fn.line > best->line) best = &fn;
      }
    }
    if (best == nullptr) {
      for (std::size_t f = first_fn; f < index.functions.size(); ++f) {
        FunctionDef& fn = index.functions[f];
        if (fn.line > m && (best == nullptr || fn.line < best->line))
          best = &fn;
      }
    }
    if (best != nullptr) best->hot_lane = true;
  }
}

void finalize_index(Index& index) {
  // Range-for events were recorded for every container; keep only those
  // whose root variable is known to be unordered (declared anywhere in
  // the indexed tree, headers included).
  for (FunctionDef& fn : index.functions) {
    std::vector<UnorderedIter> kept;
    for (UnorderedIter& it : fn.unordered_iters) {
      if (index.unordered_vars.count(it.container)) {
        kept.push_back(std::move(it));
      }
    }
    fn.unordered_iters = std::move(kept);
  }
}

}  // namespace intox::analyze
