#include "validate/invariant.hpp"

#include <cstdarg>
#include <cstdio>
#include <string>

namespace intox::validate {

void invariant_failed(const char* file, int line, const char* fmt, ...) {
  char detail[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(detail, sizeof(detail), fmt, args);
  va_end(args);
  throw InvariantError(std::string(file) + ":" + std::to_string(line) +
                       ": invariant violated: " + detail);
}

}  // namespace intox::validate
