// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component takes an explicit Rng (or a seed) — nothing
// in the library reads global entropy. `fork` derives statistically
// independent substreams from labels, so adding a new consumer does not
// perturb the draws seen by existing ones.
//
// The engine yields exactly std::mt19937_64's outputs for every seed, yet
// a fresh Rng is five words: most streams (a Blink flow's driver) draw a
// few dozen numbers, and MT19937-64's first 156 outputs need none of its
// 312-word twisted state. Output k < 156 is
//   temper(x[k+156] ^ twist(x[k], x[k+1]))
// over three *seeding* words, and the seeding recurrence
//   x[j] = 6364136223846793005·(x[j-1] ^ (x[j-1] >> 62)) + j
// yields them in order. So the prefix needs three words per output: the
// engine keeps x[k] and x[k+156], derives x[k+1] from x[k], and steps
// both per draw; the first draw steps x[156] up from the seed. Output 156
// is the first to read a twisted word, so a stream that gets there
// seeds and twists the full 312-word state on the heap (the tail) and
// draws from it as std::mt19937_64 does.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string_view>

#include "sim/time.hpp"

namespace intox::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives an independent substream keyed by (this seed, label).
  [[nodiscard]] Rng fork(std::string_view label) const;
  /// Derives an independent substream keyed by (this seed, index).
  [[nodiscard]] Rng fork(std::uint64_t index) const;

  [[nodiscard]] std::uint64_t seed() const { return engine_.seed(); }

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
  // std::mt19937_64's output stream, from the seeding words until output
  // 156, then from the heap tail. A copy deep-copies the tail. No move is
  // declared, so moving copies and the source keeps a valid stream.
  class Engine {
   public:
    using result_type = std::uint64_t;

    explicit Engine(std::uint64_t seed) : seed_(seed), x_(seed) {}
    Engine(const Engine& other);
    Engine& operator=(const Engine& other);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    // Only a tail draw is inline: a long stream pays a load and a temper.
    result_type operator()() {
      if (tail_ && k_ < kWords) return temper((*tail_)[k_++]);
      return next_slow();
    }

    [[nodiscard]] std::uint64_t seed() const { return seed_; }

   private:
    using Mt = std::mt19937_64;  // MT19937-64's parameters, by name
    static constexpr std::size_t kWords = Mt::state_size;
    using State = std::array<std::uint64_t, kWords>;

    static constexpr result_type temper(result_type z) {
      z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
      z ^= (z << Mt::tempering_s) & Mt::tempering_b;
      z ^= (z << Mt::tempering_t) & Mt::tempering_c;
      return z ^ (z >> Mt::tempering_l);
    }

    // A prefix output, the move to the tail, or a tail refill.
    result_type next_slow();

    std::uint64_t seed_;
    std::uint64_t x_;        // x[k]
    std::uint64_t x_m_ = 0;  // x[k+156]; stepped up by the first draw
    std::size_t k_ = 0;      // prefix: outputs drawn; tail: next word
    std::unique_ptr<State> tail_;
  };

  Engine engine_;
};

}  // namespace intox::sim
