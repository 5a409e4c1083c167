// The scenario console: byte-compatible with the bench_util.hpp table
// conventions every bench printed before the scenario registry existed
// (64-column `=` rules, "  [PASS]/[CHECK]" claims, "  note:" remarks).
// Stdout stays the golden artifact — the golden tests diff `intox run`
// against tests/golden/<scenario>.txt byte for byte — while the console
// additionally tallies the claims it prints (a failed one makes the
// driver exit 1) and supports a quiet mode so `intox validate` can run
// every scenario silently.
#pragma once

#include <cstddef>

namespace intox::scenario {

class Console {
 public:
  void header(const char* exp_id, const char* what);

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void row(const char* fmt, ...);

  /// Blank table row (avoids the zero-length-format warning).
  void row();

  void claim(bool ok, const char* text);
  void note(const char* text);

  void set_quiet(bool quiet) { quiet_ = quiet; }
  [[nodiscard]] std::size_t claims() const { return claims_; }
  [[nodiscard]] std::size_t passed() const { return passed_; }

 private:
  bool quiet_ = false;
  std::size_t claims_ = 0;
  std::size_t passed_ = 0;
};

}  // namespace intox::scenario
