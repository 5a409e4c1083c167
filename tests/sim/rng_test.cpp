#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "sim/stats.hpp"

namespace intox::sim {
namespace {

static_assert(sizeof(Rng) <= 64, "a fresh fork must stay a few words");

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

// A full-range uniform_int passes the engine's output through, so it is
// the raw stream; the oracle is the engine Rng reproduces.
std::uint64_t raw(Rng& rng) { return rng.uniform_int(0, kMax); }

std::vector<std::uint64_t> identity_seeds() {
  const Rng root{20191113};
  std::vector<std::uint64_t> seeds = {0, 1, kMax};
  seeds.push_back(root.fork("alpha").seed());
  for (const std::uint64_t index : {0, 123456})
    seeds.push_back(root.fork(index).seed());
  return seeds;
}

TEST(RngStream, RawOutputsMatchMt19937_64) {
  for (const std::uint64_t seed : identity_seeds()) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(raw(rng), oracle());
  }
}

// Each copy is taken after `at` draws, on both sides of output 156 where
// the stream moves from the seeding words to the heap tail.
TEST(RngStream, CopiesContinueIdenticallyAndIndependently) {
  for (const std::uint64_t seed : identity_seeds()) {
    for (const int at : {0, 1, 155, 156, 157, 500}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", at " << at);
      Rng rng{seed};
      std::mt19937_64 oracle{seed};
      for (int i = 0; i < at; ++i) ASSERT_EQ(raw(rng), oracle());

      Rng copy = rng;
      // The assigned-to Rng has a tail of its own to drop.
      Rng assigned{~seed};
      std::mt19937_64 before{~seed};
      for (int i = 0; i < 300; ++i) ASSERT_EQ(raw(assigned), before());
      assigned = rng;
      std::mt19937_64 copy_oracle = oracle;
      std::mt19937_64 assigned_oracle = oracle;

      // Interleaved, and at different rates, so a shared state shows.
      for (int i = 0; i < 400; ++i) {
        ASSERT_EQ(raw(rng), oracle());
        ASSERT_EQ(raw(copy), copy_oracle());
        if (i % 2 == 0) {
          ASSERT_EQ(raw(assigned), assigned_oracle());
        }
      }
      EXPECT_EQ(copy.seed(), seed);
      EXPECT_EQ(assigned.seed(), seed);
    }
  }
}

// Each member against the same <random> call on the oracle, round-robin
// for 400 rounds, so every member draws on both sides of output 156.
TEST(RngStream, EveryMemberMatchesTheStandardDistributions) {
  using Real = std::uniform_real_distribution<double>;
  using Int = std::uniform_int_distribution<std::uint64_t>;
  using Bernoulli = std::bernoulli_distribution;
  using Exp = std::exponential_distribution<double>;
  using Normal = std::normal_distribution<double>;
  using LogNormal = std::lognormal_distribution<double>;
  for (const std::uint64_t seed : identity_seeds()) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    std::mt19937_64 o{seed};
    std::vector<int> deck(10);
    std::iota(deck.begin(), deck.end(), 0);
    std::vector<int> oracle_deck = deck;
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(rng.uniform(), Real(0, 1)(o));
      ASSERT_EQ(rng.uniform(-2.5, 7.0), Real(-2.5, 7.0)(o));
      ASSERT_EQ(rng.uniform_int(3, 1000), Int(3, 1000)(o));
      ASSERT_EQ(rng.bernoulli(0.0525), Bernoulli(0.0525)(o));
      ASSERT_EQ(rng.exponential(8.37), Exp(1 / 8.37)(o));
      ASSERT_EQ(rng.normal(5.0, 2.0), Normal(5.0, 2.0)(o));
      ASSERT_EQ(rng.lognormal(0.5, 1.2), LogNormal(0.5, 1.2)(o));

      double u = Real(0, 1)(o);
      if (u <= 0.0) u = 1e-18;
      ASSERT_EQ(rng.pareto(2.0, 1.5), 2.0 / std::pow(u, 1.0 / 1.5));

      const double gap = Exp(1.0 / static_cast<double>(kSecond / 4))(o);
      ASSERT_EQ(rng.exp_duration(kSecond / 4), static_cast<Duration>(gap));

      rng.shuffle(deck);
      std::shuffle(oracle_deck.begin(), oracle_deck.end(), o);
      ASSERT_EQ(deck, oracle_deck);
    }
  }
}

TEST(Rng, SameSeedSameStream) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkByLabelIsStableAndIndependent) {
  Rng root{7};
  Rng a1 = root.fork("alpha");
  Rng a2 = root.fork("alpha");
  Rng b = root.fork("beta");
  EXPECT_DOUBLE_EQ(a1.uniform(), a2.uniform());
  EXPECT_NE(a1.seed(), b.seed());
}

TEST(Rng, ForkByIndexDistinct) {
  Rng root{7};
  EXPECT_NE(root.fork(std::uint64_t{0}).seed(),
            root.fork(std::uint64_t{1}).seed());
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r{123};
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.exponential(8.37));
  EXPECT_NEAR(s.mean(), 8.37, 0.1);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng r{9};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = r.uniform_int(3, 6);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ParetoRespectsScale) {
  Rng r{5};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r{11};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.0525);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.0525, 0.005);
}

TEST(Rng, ExpDurationPositive) {
  Rng r{3};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.exp_duration(kSecond), 0);
  }
}

}  // namespace
}  // namespace intox::sim
