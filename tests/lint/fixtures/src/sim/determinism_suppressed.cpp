// Fixture: pragma-suppressed determinism findings — the same code as
// the bad twin, each use carrying a justified allow pragma. Must
// produce zero findings (and zero stale-pragma findings: every pragma
// suppresses something).
#include <chrono>

namespace intox::fixture {

double perf_timer_seconds() {
  // Perf telemetry only, never feeds trial results.
  // intox-analyze: allow(determinism, perf telemetry only)
  const auto start = std::chrono::steady_clock::now();
  // intox-analyze: allow(determinism, perf telemetry only)
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace intox::fixture
