#include "scenario/console.hpp"

#include <cstdarg>
#include <cstdio>

namespace intox::scenario {
namespace {

constexpr std::string_view kRule =
    "================================================================\n";

}  // namespace

void Console::write(std::string_view text) {
  if (capture_ != nullptr) {
    capture_->append(text);
  } else {
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
}

void Console::header(const char* exp_id, const char* what) {
  write("\n");
  write(kRule);
  write(std::string(exp_id) + " — " + what + "\n");
  write(kRule);
}

void Console::row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sized;
  va_copy(sized, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sized);
  va_end(sized);
  // vsnprintf writes its terminating NUL over the '\n' slot, which the
  // assignment after it restores.
  std::string line(n > 0 ? static_cast<std::size_t>(n) + 1 : 1, '\n');
  if (n > 0) std::vsnprintf(line.data(), line.size(), fmt, args);
  va_end(args);
  line.back() = '\n';
  write(line);
}

void Console::row() { write("\n"); }

void Console::claim(bool ok, const char* text) {
  ++claims_;
  if (ok) ++passed_;
  write(std::string("  [") + (ok ? "PASS" : "CHECK") + "] " + text + "\n");
}

void Console::note(const char* text) {
  write(std::string("  note: ") + text + "\n");
}

}  // namespace intox::scenario
