#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace intox::sim {
namespace {

// A deliberately uneven trial: trial i draws 100 + 37*(i % 5) variates,
// so dynamic work-claiming actually interleaves differently per thread
// count — the aggregates must not notice.
double uneven_trial(std::size_t i, Rng& rng) {
  double acc = 0.0;
  const std::size_t draws = 100 + 37 * (i % 5);
  for (std::size_t d = 0; d < draws; ++d) acc += rng.uniform();
  return acc / static_cast<double>(draws);
}

TEST(ParallelRunner, MapPreservesTrialOrder) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ParallelRunner runner{threads};
    const auto out =
        runner.map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelRunner, SameSeedIdenticalStatsForAnyThreadCount) {
  const Rng base{2026};
  ParallelRunner serial{1};
  const RunningStats want = serial.run_stats(base, 64, uneven_trial);

  for (std::size_t threads : {2u, 8u}) {
    ParallelRunner runner{threads};
    const RunningStats got = runner.run_stats(base, 64, uneven_trial);
    // Bit-identical, not merely close: same per-trial streams, same
    // fold order.
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.mean(), want.mean());
    EXPECT_EQ(got.variance(), want.variance());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
  }
}

TEST(ParallelRunner, SeriesAggregateIdenticalForAnyThreadCount) {
  const Rng base{7};
  auto trial = [](std::size_t, Rng& rng) {
    TimeSeries s;
    double level = 0.0;
    for (int t = 0; t <= 100; t += 5) {
      level += rng.normal(0.0, 1.0);
      s.record(seconds(t), level);
    }
    return s;
  };

  auto aggregate = [&](std::size_t threads) {
    ParallelRunner runner{threads};
    SeriesStats agg{0, seconds(100), seconds(10)};
    for (const TimeSeries& s : runner.run(base, 48, trial)) agg.add(s);
    return agg;
  };

  const SeriesStats want = aggregate(1);
  for (std::size_t threads : {2u, 8u}) {
    const SeriesStats got = aggregate(threads);
    ASSERT_EQ(got.points(), want.points());
    EXPECT_EQ(got.series_count(), want.series_count());
    for (std::size_t i = 0; i < want.points(); ++i) {
      EXPECT_EQ(got.at(i).mean(), want.at(i).mean());
      EXPECT_EQ(got.at(i).variance(), want.at(i).variance());
      EXPECT_EQ(got.at(i).min(), want.at(i).min());
      EXPECT_EQ(got.at(i).max(), want.at(i).max());
    }
  }
}

TEST(ParallelRunner, DistinctSeedsDistinctStreams) {
  ParallelRunner runner{4};
  const RunningStats a = runner.run_stats(Rng{1}, 32, uneven_trial);
  const RunningStats b = runner.run_stats(Rng{2}, 32, uneven_trial);
  EXPECT_NE(a.mean(), b.mean());
  // ...while the same seed reproduces.
  const RunningStats a2 = runner.run_stats(Rng{1}, 32, uneven_trial);
  EXPECT_EQ(a.mean(), a2.mean());
}

TEST(ParallelRunner, TrialRngMatchesForkByIndex) {
  // The contract benches rely on: trial i sees exactly base.fork(i).
  const Rng base{99};
  ParallelRunner runner{3};
  const auto draws = runner.run(
      base, 10, [](std::size_t, Rng& rng) { return rng.uniform(); });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    Rng expect = base.fork(i);
    EXPECT_EQ(draws[i], expect.uniform()) << "trial " << i;
  }
}

TEST(ParallelRunner, ZeroTrialsIsANoOp) {
  ParallelRunner runner{4};
  const auto out = runner.map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(runner.last_report().trials, 0u);
}

TEST(ParallelRunner, ReportCountsTrialsAndClampsWorkers) {
  ParallelRunner runner{8};
  EXPECT_EQ(runner.threads(), 8u);
  runner.map(3, [](std::size_t i) { return i; });
  EXPECT_EQ(runner.last_report().trials, 3u);
  // No point spinning up more workers than trials.
  EXPECT_EQ(runner.last_report().threads, 3u);
  EXPECT_GE(runner.last_report().wall_seconds, 0.0);
}

TEST(ParallelRunner, TrialExceptionPropagates) {
  ParallelRunner runner{4};
  EXPECT_THROW(runner.map(64,
                          [](std::size_t i) -> int {
                            if (i == 13) throw std::runtime_error{"boom"};
                            return 0;
                          }),
               std::runtime_error);
}

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(resolve_threads(5), 5u);
}

TEST(ResolveThreads, DefaultsToAtLeastOne) {
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace intox::sim
