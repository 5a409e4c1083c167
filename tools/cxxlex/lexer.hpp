// Tokenizer of the intox static analyzer: comments and literals are
// handled exactly (including raw strings and line continuations), so
// checks never fire on commented-out or quoted code.
#pragma once

#include <string_view>

#include "token.hpp"

namespace intox::cxxlex {

/// Tokenizes a translation unit. Comments are skipped (suppression
/// pragmas are read from raw lines by the drivers, not from tokens);
/// each preprocessor directive becomes a single kPreprocessor token
/// whose text is the whole logical line, continuations folded.
TokenStream tokenize(std::string_view source);

}  // namespace intox::cxxlex
