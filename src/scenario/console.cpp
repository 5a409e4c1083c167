#include "scenario/console.hpp"

#include <cstdarg>
#include <cstdio>

namespace intox::scenario {

void Console::header(const char* exp_id, const char* what) {
  if (quiet_) return;
  std::printf("\n================================================"
              "================\n");
  std::printf("%s — %s\n", exp_id, what);
  std::printf("================================================"
              "================\n");
}

void Console::row(const char* fmt, ...) {
  if (quiet_) return;
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

void Console::row() {
  if (quiet_) return;
  std::printf("\n");
}

void Console::claim(bool ok, const char* text) {
  ++claims_;
  if (ok) ++passed_;
  if (quiet_) return;
  std::printf("  [%s] %s\n", ok ? "PASS" : "CHECK", text);
}

void Console::note(const char* text) {
  if (quiet_) return;
  std::printf("  note: %s\n", text);
}

}  // namespace intox::scenario
