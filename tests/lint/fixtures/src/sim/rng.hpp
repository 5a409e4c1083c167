// Fixture: the quiet twin of the draws in determinism_bad.cpp. The Rng
// unit (src/sim/rng.{hpp,cpp}) owns the engine, the distributions and
// the shuffle, so nothing here may fire.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>

namespace intox::fixture {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  template <typename Container>
  void shuffle(Container& c) {
    std::shuffle(c.begin(), c.end(), engine_);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace intox::fixture
