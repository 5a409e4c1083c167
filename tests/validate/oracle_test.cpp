// Self-checks for the differential oracles: an oracle that is itself
// wrong silently blesses the bug it was meant to catch.
#include "validate/oracles.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "validate/invariant.hpp"

namespace intox::validate {
namespace {

TEST(ExactStatsOracle, AgreesWithRunningStats) {
  sim::Rng rng{7};
  std::vector<double> xs;
  sim::RunningStats rs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.lognormal(1.0, 0.8);
    xs.push_back(x);
    rs.add(x);
  }
  const ExactStats ex = exact_stats(xs);
  EXPECT_EQ(ex.n, rs.count());
  EXPECT_NEAR(ex.mean, rs.mean(), 1e-9 * ex.mean);
  EXPECT_NEAR(ex.variance, rs.variance(), 1e-7 * ex.variance);
  EXPECT_DOUBLE_EQ(ex.min, rs.min());
  EXPECT_DOUBLE_EQ(ex.max, rs.max());
}

TEST(ReferenceQueue, FiresInTimeThenFifoOrder) {
  ReferenceQueue q;
  const auto a = q.schedule_at(30);
  const auto b = q.schedule_at(10);
  const auto c = q.schedule_at(10);  // same instant: FIFO after b
  const auto fired = q.run_until(100);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].id, b);
  EXPECT_EQ(fired[1].id, c);
  EXPECT_EQ(fired[2].id, a);
  EXPECT_EQ(q.now(), 100);
}

TEST(ReferenceQueue, ClampsPastAndCancels) {
  ReferenceQueue q;
  q.run_until(50);
  const auto late = q.schedule_at(10);  // clamped to now=50
  const auto gone = q.schedule_at(60);
  EXPECT_TRUE(q.cancel(gone));
  EXPECT_FALSE(q.cancel(gone));
  EXPECT_FALSE(q.cancel(9999));
  const auto fired = q.run_until(55);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].id, late);
  EXPECT_EQ(fired[0].time, 50);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(ReferenceQueue, ReservedTicketsKeepTheirPlace) {
  ReferenceQueue q{100};  // positions start where the wheel's did
  const auto first = q.reserve(2);
  EXPECT_EQ(first, 100u);
  const auto later = q.schedule_at(10);
  EXPECT_TRUE(q.schedule_reserved(10, first + 1, 7));
  EXPECT_TRUE(q.schedule_reserved(10, first, 8));
  EXPECT_FALSE(q.schedule_reserved(10, first + 3, 9));  // never reserved
  const auto fired = q.run_until(10);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].id, 8u);
  EXPECT_EQ(fired[1].id, 7u);
  EXPECT_EQ(fired[2].id, later);
}

TEST(ReferenceQueue, RunHonorsLimit) {
  ReferenceQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(i * 10);
  EXPECT_EQ(q.run(3).size(), 3u);
  EXPECT_EQ(q.pending(), 2u);
}

// A wheel that pops an event past run_until's bound still fires in the
// reference queue's order, so only the bound itself can catch it.
TEST(SchedulerOracle, FirePastItsBoundRaisesInvariant) {
  SchedulerOracle oracle{0};
  oracle.mirror_schedule(10, 1, 1, std::nullopt);
  oracle.mirror_schedule(20, 2, 2, std::nullopt);
  EXPECT_NO_THROW(oracle.mirror_fire(1, 10, 10, 1));
  EXPECT_THROW(oracle.mirror_fire(2, 20, 15, 0), InvariantError);
}

}  // namespace
}  // namespace intox::validate
