// The scenario console: byte-compatible with the bench_util.hpp table
// conventions every bench printed before the scenario registry existed
// (64-column `=` rules, "  [PASS]/[CHECK]" claims, "  note:" remarks).
// It is a run's only stdout path. Stdout stays the golden artifact —
// the golden tests diff `intox run` against tests/golden/<scenario>.txt
// byte for byte — while the console additionally tallies the claims it
// prints (a failed one makes the driver exit 1). Given a capture
// string, it appends the same bytes there instead of printing them, so
// a point record or `intox validate` runs a scenario exactly as
// `intox run` does.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace intox::scenario {

class Console {
 public:
  /// Prints to stdout, or appends to *capture when it is not null.
  explicit Console(std::string* capture = nullptr) : capture_(capture) {}

  void header(const char* exp_id, const char* what);

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void row(const char* fmt, ...);

  /// Blank table row (avoids the zero-length-format warning).
  void row();

  void claim(bool ok, const char* text);
  void note(const char* text);

  [[nodiscard]] std::size_t claims() const { return claims_; }
  [[nodiscard]] std::size_t passed() const { return passed_; }

 private:
  void write(std::string_view text);

  std::string* capture_;
  std::size_t claims_ = 0;
  std::size_t passed_ = 0;
};

}  // namespace intox::scenario
