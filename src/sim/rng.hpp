// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component takes an explicit Rng (or a seed) — nothing
// in the library reads global entropy. `fork` derives statistically
// independent substreams from labels, so adding a new consumer does not
// perturb the draws seen by existing ones.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string_view>

#include "sim/time.hpp"

namespace intox::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derives an independent substream keyed by (this seed, label).
  [[nodiscard]] Rng fork(std::string_view label) const;
  /// Derives an independent substream keyed by (this seed, index).
  [[nodiscard]] Rng fork(std::uint64_t index) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>{lo, hi}(engine_);
  }
  bool bernoulli(double p) { return std::bernoulli_distribution{p}(engine_); }
  /// Exponential with the given mean (not rate).
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }
  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }
  /// Pareto with scale x_m > 0 and shape alpha > 0.
  double pareto(double x_m, double alpha);

  /// Exponential inter-arrival duration with the given mean.
  Duration exp_duration(Duration mean) {
    return static_cast<Duration>(exponential(static_cast<double>(mean)));
  }

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    std::shuffle(c.begin(), c.end(), engine_);
  }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace intox::sim
