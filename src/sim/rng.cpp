#include "sim/rng.hpp"

#include <cmath>

#include "net/hash.hpp"

namespace intox::sim {

namespace {

using Mt = std::mt19937_64;
constexpr std::size_t kWords = Mt::state_size;  // n = 312
constexpr std::size_t kShift = Mt::shift_size;  // m = 156
// Outputs drawn before the first one that reads a twisted word: n − m.
constexpr std::size_t kPrefix = kWords - kShift;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << Mt::mask_bits;

// The seeding recurrence: x[j] from x[j−1].
constexpr std::uint64_t seed_step(std::uint64_t prev, std::uint64_t j) {
  const std::uint64_t mixed = prev ^ (prev >> (Mt::word_size - 2));
  return Mt::initialization_multiplier * mixed + j;
}

// The twist of two consecutive words, before it is XORed with x[k+m].
constexpr std::uint64_t twist(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t y = (lo & kUpperMask) | (hi & ~kUpperMask);
  return (y >> 1) ^ ((y & 1) != 0 ? Mt::xor_mask : 0);
}

// Regenerates all n words in place, in std::mt19937_64's order.
void twist_all(std::array<std::uint64_t, kWords>& x) {
  std::size_t k = 0;
  for (; k < kWords - kShift; ++k)
    x[k] = x[k + kShift] ^ twist(x[k], x[k + 1]);
  for (; k < kWords - 1; ++k)
    x[k] = x[k + kShift - kWords] ^ twist(x[k], x[k + 1]);
  x[k] = x[kShift - 1] ^ twist(x[k], x[0]);
}

}  // namespace

Rng::Engine::Engine(const Engine& other)
    : seed_(other.seed_),
      x_(other.x_),
      x_m_(other.x_m_),
      k_(other.k_),
      tail_(other.tail_ ? std::make_unique<State>(*other.tail_) : nullptr) {}

Rng::Engine& Rng::Engine::operator=(const Engine& other) {
  if (this == &other) return *this;
  // The tail first, so a failed allocation leaves this stream whole.
  tail_ = other.tail_ ? std::make_unique<State>(*other.tail_) : nullptr;
  seed_ = other.seed_;
  x_ = other.x_;
  x_m_ = other.x_m_;
  k_ = other.k_;
  return *this;
}

Rng::Engine::result_type Rng::Engine::next_slow() {
  if (tail_) {  // all n words drawn
    twist_all(*tail_);
    k_ = 0;
    return temper((*tail_)[k_++]);
  }
  if (k_ == kPrefix) {  // output n − m reads a twisted word
    tail_ = std::make_unique<State>();
    State& x = *tail_;
    x[0] = seed_;
    for (std::size_t j = 1; j < kWords; ++j) x[j] = seed_step(x[j - 1], j);
    twist_all(x);
    return temper(x[k_++]);
  }
  if (k_ == 0) {
    x_m_ = x_;
    for (std::size_t j = 1; j <= kShift; ++j) x_m_ = seed_step(x_m_, j);
  }
  const std::uint64_t next = seed_step(x_, k_ + 1);
  const std::uint64_t z = x_m_ ^ twist(x_, next);
  x_ = next;
  x_m_ = seed_step(x_m_, k_ + kShift + 1);
  ++k_;
  return temper(z);
}

Rng Rng::fork(std::string_view label) const {
  const std::uint64_t h = net::fnv1a64(
      std::as_bytes(std::span{label.data(), label.size()}), seed());
  return Rng{net::mix64(h)};
}

Rng Rng::fork(std::uint64_t index) const {
  return Rng{net::mix64(seed() ^ net::mix64(index + 1))};
}

double Rng::pareto(double x_m, double alpha) {
  // Inverse-CDF sampling; guard against u == 0 which would diverge.
  double u = uniform();
  if (u <= 0.0) u = 1e-18;
  return x_m / std::pow(u, 1.0 / alpha);
}

}  // namespace intox::sim
