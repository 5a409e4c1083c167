// Fixture: suppressed header findings. A header that genuinely needs
// <iostream> (it defines inline operator<< used by tests) carries the
// pragma; must produce zero findings.
#pragma once

// This fixture header exists to print; the include is the point.
// intox-analyze: allow(header, printing is this header's purpose)
#include <iostream>

namespace intox::fixture {

struct Pretty {
  int value = 0;
};

inline std::ostream& operator<<(std::ostream& os, const Pretty& p) {
  return os << "Pretty{" << p.value << "}";
}

}  // namespace intox::fixture
