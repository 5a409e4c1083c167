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

}  // namespace intox::fixture
