#include "pytheas/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>

#include "obs/metrics.hpp"

namespace intox::pytheas {
namespace {

const SessionFeatures kGroupA{.asn = 1, .location = "zrh", .content = "vod"};
const SessionFeatures kGroupB{.asn = 2, .location = "nyc", .content = "vod"};

EngineConfig two_arm_config() {
  EngineConfig c;
  c.arms = 2;
  c.exploration_fraction = 0.0;  // deterministic assignment in unit tests
  return c;
}

TEST(PytheasEngine, GroupsBySessionFeatures) {
  PytheasEngine e{two_arm_config()};
  e.join(1, kGroupA);
  e.join(2, kGroupA);
  e.join(3, kGroupB);
  EXPECT_EQ(e.group_count(), 2u);
}

TEST(PytheasEngine, DecisionsAreGroupGranularity) {
  PytheasEngine e{two_arm_config()};
  e.join(1, kGroupA);
  e.join(2, kGroupA);
  // Feed reports showing arm 1 is better for group A.
  for (int i = 0; i < 50; ++i) {
    e.report({1, 0, 2.0, 0});
    e.report({2, 1, 4.5, 0});
  }
  e.end_epoch();
  EXPECT_EQ(e.group_best_arm(kGroupA), 1u);
  EXPECT_EQ(e.assignment(1), 1u);
  EXPECT_EQ(e.assignment(2), 1u);
}

TEST(PytheasEngine, GroupsAreIsolated) {
  PytheasEngine e{two_arm_config()};
  e.join(1, kGroupA);
  e.join(2, kGroupB);
  for (int i = 0; i < 50; ++i) {
    e.report({1, 1, 5.0, 0});  // group A: arm 1 great
    e.report({2, 0, 5.0, 0});  // group B: arm 0 great
    e.report({1, 0, 1.0, 0});
    e.report({2, 1, 1.0, 0});
  }
  e.end_epoch();
  EXPECT_EQ(e.group_best_arm(kGroupA), 1u);
  EXPECT_EQ(e.group_best_arm(kGroupB), 0u);
}

TEST(PytheasEngine, ExplorationAssignsMinorityElsewhere) {
  EngineConfig cfg = two_arm_config();
  cfg.exploration_fraction = 0.2;
  cfg.seed = 5;
  PytheasEngine e{cfg};
  for (SessionId s = 1; s <= 200; ++s) e.join(s, kGroupA);
  for (int i = 0; i < 50; ++i) e.report({1, 0, 5.0, 0});
  e.end_epoch();
  std::size_t on_best = 0;
  for (SessionId s = 1; s <= 200; ++s) on_best += (e.assignment(s) == 0u);
  EXPECT_GT(on_best, 150u);
  EXPECT_LT(on_best, 200u);  // some sessions must be exploring
}

TEST(PytheasEngine, LeaveRemovesSession) {
  PytheasEngine e{two_arm_config()};
  e.join(1, kGroupA);
  e.leave(1);
  // Reports from departed sessions are ignored.
  e.report({1, 0, 0.0, 0});
  e.end_epoch();
  const auto* bandit = e.group_bandit(kGroupA);
  ASSERT_NE(bandit, nullptr);
  EXPECT_LT(bandit->effective_count(0), 1e-9);
}

class RejectAll : public ReportFilter {
 public:
  bool admit(const SessionFeatures&, const QoeReport&) override {
    return false;
  }
};

TEST(PytheasEngine, FilterQuarantinesReports) {
  PytheasEngine e{two_arm_config()};
  e.set_filter(std::make_shared<RejectAll>());
  e.join(1, kGroupA);
  for (int i = 0; i < 10; ++i) e.report({1, 0, 0.0, 0});
  EXPECT_EQ(e.filtered_reports(), 10u);
  const auto* bandit = e.group_bandit(kGroupA);
  EXPECT_LT(bandit->effective_count(0), 1e-9);
}

// report() runs once per QoE report on runner workers, so the engine
// keeps its counts in members and adds each to the shared registry
// once, when it retires.
TEST(PytheasEngine, FoldsCountsIntoTheRegistryAtRetirement) {
  auto counter = [](std::string_view name) -> std::uint64_t {
    const auto snap = obs::Registry::global().snapshot();
    auto it = snap.counters.find(std::string(name));
    return it == snap.counters.end() ? 0 : it->second;
  };
  const std::uint64_t reports0 = counter("pytheas.reports");
  const std::uint64_t filtered0 = counter("pytheas.filtered_reports");
  const std::uint64_t epochs0 = counter("pytheas.epochs");
  {
    PytheasEngine e{two_arm_config()};
    e.set_filter(std::make_shared<RejectAll>());
    e.join(1, kGroupA);
    for (int i = 0; i < 10; ++i) e.report({1, 0, 0.0, 0});
    e.report({2, 0, 0.0, 0});  // unknown session: counted, not filtered
    e.end_epoch();
    e.end_epoch();
    EXPECT_EQ(counter("pytheas.reports"), reports0);
    EXPECT_EQ(counter("pytheas.filtered_reports"), filtered0);
    EXPECT_EQ(counter("pytheas.epochs"), epochs0);
  }
  EXPECT_EQ(counter("pytheas.reports"), reports0 + 11);
  EXPECT_EQ(counter("pytheas.filtered_reports"), filtered0 + 10);
  EXPECT_EQ(counter("pytheas.epochs"), epochs0 + 2);
}

TEST(PytheasEngine, EpochReportsVisibleUntilEpochEnd) {
  PytheasEngine e{two_arm_config()};
  e.join(1, kGroupA);
  e.report({1, 0, 3.3, 0});
  const auto* reports = e.epoch_reports(kGroupA);
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_DOUBLE_EQ((*reports)[0].qoe, 3.3);
  e.end_epoch();
  EXPECT_TRUE(e.epoch_reports(kGroupA)->empty());
}

}  // namespace
}  // namespace intox::pytheas
