// Fixture: every determinism finding must fire (see analyze_fixture_test).
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

#include "sim/rng.hpp"

namespace intox::fixture {

unsigned entropy_read() {
  std::random_device rd;  // line 12: banned entropy source
  return rd();
}

int libc_prng() {
  std::srand(7);       // line 17: banned seeding
  return std::rand();  // line 18: banned libc PRNG call
}

long wall_clock() {
  const auto t = std::chrono::system_clock::now();  // line 22: wall clock
  return std::chrono::duration_cast<std::chrono::seconds>(
             t.time_since_epoch())
      .count();
}

long libc_clock() {
  return ::time(nullptr);  // line 29: banned libc wall-clock call
}

double literal_seed() {
  sim::Rng rng(42);  // line 33: literal-seeded Rng in src/
  return rng.uniform();
}

// Draws outside sim::Rng: engines, distributions and std::shuffle.
template <typename Container>
double draws_outside_rng(std::uint64_t seed, Container& v) {
  std::mt19937_64 gen{seed};                     // line 40: engine
  std::mt19937 narrow{1};                        // line 41: engine
  std::normal_distribution<double> noise{0, 1};  // line 42: distribution
  std::shuffle(v.begin(), v.end(), gen);         // line 43: std::shuffle
  shuffle(v.begin(), v.end(), gen);              // line 44: unqualified
  return noise(gen) + static_cast<double>(narrow());
}

template <typename UInt>
using Twister = std::mersenne_twister_engine<  // line 49: engine template
    UInt, 64, 312, 156, 31, 0, 29, 0, 17, 0, 37, 0, 43, 0>;

}  // namespace intox::fixture
