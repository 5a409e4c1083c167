// Fixture: tests/ are exempt from the determinism check (a test may
// legitimately time out on the host clock or stress with real
// entropy). Nothing here may fire.
#include <chrono>
#include <random>

namespace intox::fixture {

bool waited_too_long(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::steady_clock::now() > deadline;
}

unsigned stress_seed() {
  std::random_device rd;
  return rd();
}

// Metric names registered in tests/ are likewise outside the metrics
// check and the --dump-metric-names inventory:
template <typename Registry>
void test_only_metric(Registry& reg) {
  reg.counter("Test-Only");
}

}  // namespace intox::fixture
