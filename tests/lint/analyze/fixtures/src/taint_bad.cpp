// Fixture: a registered scenario whose run function reaches entropy,
// a libc entropy call, and unordered iteration. All three must fire.
#include <cstdlib>
#include <random>
#include <unordered_map>

namespace fixture {

unsigned jitter() {
  std::random_device rd;
  return rd() + static_cast<unsigned>(std::rand());
}

int histogram_mode(int n) {
  std::unordered_map<int, int> counts;
  for (int i = 0; i < n; ++i) counts[i % 7] += 1;
  int best = 0;
  for (const auto& [value, count] : counts) {
    if (count > best) best = count;
  }
  return best;
}

int run_fixture(int trials) {
  int acc = histogram_mode(trials);
  for (int i = 0; i < trials; ++i) acc += static_cast<int>(jitter());
  return acc;
}

INTOX_REGISTER_SCENARIO(kFixture, {"fixture", run_fixture});

// No scenario reaches this helper; its hash-order loop must fire anyway.
int unregistered_total(int n) {
  std::unordered_map<int, int> seen;
  for (int i = 0; i < n; ++i) seen[i] = i * i;
  int total = 0;
  for (const auto& [key, square] : seen) total = total * 31 + square;
  return total;
}

// An unordered container taken as a parameter is unordered too.
int first_key(const std::unordered_map<int, int>& table) {
  for (const auto& entry : table) return entry.first;
  return -1;
}

}  // namespace fixture
