// Fixture: a deliberately impure invariant condition under a justified
// pragma. Must produce zero findings.
#include <atomic>

#include "validate/invariant.hpp"

namespace intox::fixture {

void checked_consume(std::atomic<int>& tokens) {
  // fetch_sub is the point: the invariant asserts the *old* value was
  // positive while consuming one token. Disabled builds accept the
  // skew; documented at the call site.
  // intox-analyze: allow(invariant, consuming check is the point)
  INTOX_INVARIANT(tokens.fetch_sub(1) > 0, "token bucket underflow");
}

}  // namespace intox::fixture
