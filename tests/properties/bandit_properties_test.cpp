// Discounted-UCB behaviour across seeds and gap sizes: converges to the
// best arm under honest noisy rewards, and the poisoned-minority flip
// threshold behaves monotonically.
#include <gtest/gtest.h>

#include "pytheas/ucb.hpp"
#include "sim/rng.hpp"

namespace intox::pytheas {
namespace {

struct BanditParam {
  double gap;     // quality difference between best and second arm
  std::uint64_t seed;
};

// Names the ctest entries (`…/gap0.5_seed1`) instead of gtest's
// default byte dump.
void PrintTo(const BanditParam& param, std::ostream* os) {
  *os << "gap" << param.gap << "_seed" << param.seed;
}

class BanditProperties : public ::testing::TestWithParam<BanditParam> {};

TEST_P(BanditProperties, ConvergesToBestArmUnderNoise) {
  const auto param = GetParam();
  DiscountedUcb bandit{3, UcbConfig{}};
  sim::Rng rng{param.seed};
  const double bases[3] = {3.0, 3.0 + param.gap, 2.5};

  int best_picks_late = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    // Every arm gets some exploration traffic; exploitation follows the
    // bandit's current choice.
    for (std::size_t arm = 0; arm < 3; ++arm) {
      bandit.observe(arm, bases[arm] + rng.normal(0.0, 0.3));
    }
    const std::size_t choice = bandit.best_mean_arm();
    for (int i = 0; i < 10; ++i) {
      bandit.observe(choice, bases[choice] + rng.normal(0.0, 0.3));
    }
    bandit.decay();
    if (epoch >= 150 && choice == 1) ++best_picks_late;
  }
  EXPECT_GE(best_picks_late, 45);  // >=90% of the last 50 epochs
}

TEST_P(BanditProperties, FlipRequiresProportionalPoison) {
  // With a larger quality gap, more poisoned reports are needed to flip
  // the discounted means.
  const auto param = GetParam();
  auto poison_needed = [&](double gap) {
    DiscountedUcb b{2, UcbConfig{}};
    for (int i = 0; i < 100; ++i) {
      b.observe(0, 3.0 + gap);
      b.observe(1, 3.0);
    }
    int poison = 0;
    while (b.best_mean_arm() == 0 && poison < 10000) {
      b.observe(0, 0.0);
      b.observe(1, 5.0);
      ++poison;
    }
    return poison;
  };
  EXPECT_LE(poison_needed(param.gap), poison_needed(param.gap * 2.0));
}

INSTANTIATE_TEST_SUITE_P(
    Gaps, BanditProperties,
    ::testing::Values(BanditParam{0.5, 1}, BanditParam{0.5, 2},
                      BanditParam{1.0, 3}, BanditParam{1.5, 4},
                      BanditParam{1.5, 5}));

}  // namespace
}  // namespace intox::pytheas
