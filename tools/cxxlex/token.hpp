// Token model of the intox static analyzer.
//
// intox_analyze does not parse C++ — it scans a token stream plus raw
// lines, which is exactly enough for the project-specific conventions
// it enforces and keeps it dependency-free so it builds everywhere CI
// does (no libclang).
#pragma once

#include <string>
#include <vector>

namespace intox::cxxlex {

enum class TokenKind {
  kIdentifier,   // foo, std, INTOX_INVARIANT
  kNumber,       // 42, 0x1f, 1e-3, 42ull
  kString,       // "..." (text excludes quotes; raw strings unescaped)
  kCharLiteral,  // 'x'
  kPunct,        // one operator/punctuator per token ("++", "<<=", "(")
  kPreprocessor, // one token per logical directive line ("#pragma once")
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;  // 1-based line of the token's first character
};

using TokenStream = std::vector<Token>;

}  // namespace intox::cxxlex
