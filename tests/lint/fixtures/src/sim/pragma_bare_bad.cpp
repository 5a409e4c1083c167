// Fixture: a suppression without a justification after the check name
// is malformed, and a malformed pragma suppresses nothing — so both the
// pragma finding and the clock underneath it must fire.
#include <chrono>

namespace intox::fixture {

inline double unjustified_timer() {
  // intox-analyze: allow(determinism)
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

}  // namespace intox::fixture
