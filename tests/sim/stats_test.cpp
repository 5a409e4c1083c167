#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include "validate/invariant.hpp"

namespace intox::sim {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SeriesStats, ResamplesOntoGrid) {
  TimeSeries a, b;
  a.record(0, 1.0);
  a.record(seconds(10), 3.0);
  b.record(0, 5.0);

  SeriesStats agg{0, seconds(20), seconds(10)};
  agg.add(a);
  agg.add(b);

  ASSERT_EQ(agg.points(), 3u);
  EXPECT_EQ(agg.series_count(), 2u);
  EXPECT_DOUBLE_EQ(agg.at(0).mean(), 3.0);  // (1 + 5) / 2
  EXPECT_DOUBLE_EQ(agg.at(1).mean(), 4.0);  // (3 + 5) / 2
  EXPECT_DOUBLE_EQ(agg.at(2).mean(), 4.0);  // step-extended
  EXPECT_EQ(agg.time_at(2), seconds(20));
}

TEST(TimeSeries, StepInterpolation) {
  TimeSeries ts;
  ts.record(10, 1.0);
  ts.record(20, 2.0);
  ts.record(30, 3.0);
  EXPECT_DOUBLE_EQ(ts.at(5, -1.0), -1.0);  // before first sample
  EXPECT_DOUBLE_EQ(ts.at(10), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(15), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(20), 2.0);
  EXPECT_DOUBLE_EQ(ts.at(1000), 3.0);
}

TEST(TimeSeries, MeanOverIsTimeWeighted) {
  // Regression pin for the time-weighted semantics: the step function is
  // 1 on [0,10), 3 on [10,20), 5 from 20 on. The old implementation
  // averaged whichever *points* fell in the window, so a burst of
  // closely-spaced samples at one level dragged the mean toward it.
  TimeSeries ts;
  ts.record(0, 1.0);
  ts.record(10, 3.0);
  ts.record(20, 5.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(0, 20), 2.0);    // (10*1 + 10*3) / 20
  EXPECT_DOUBLE_EQ(ts.mean_over(5, 15), 2.0);    // (5*1 + 5*3) / 10
  EXPECT_DOUBLE_EQ(ts.mean_over(0, 40), 3.5);    // (10*1 + 10*3 + 20*5) / 40
  EXPECT_DOUBLE_EQ(ts.mean_over(100, 200), 5.0); // step-extended last value
  EXPECT_DOUBLE_EQ(ts.mean_over(15, 15), 3.0);   // empty window: at(15)
}

TEST(TimeSeries, MeanOverIgnoresBurstySamplingBias) {
  // Level 10 for 100 ns sampled once; level 0 for the last 10 ns sampled
  // ten times. An unweighted point average would report ~0.9; the true
  // time-weighted mean is (100*10 + 10*0) / 110.
  TimeSeries ts;
  ts.record(0, 10.0);
  for (Time t = 100; t < 110; ++t) ts.record(t, 0.0);
  EXPECT_NEAR(ts.mean_over(0, 110), 1000.0 / 110.0, 1e-12);
}

TEST(TimeSeries, MeanOverWindowBeforeFirstSampleUsesZero) {
  TimeSeries ts;
  ts.record(100, 4.0);
  // [0,100) is before any sample (value 0), then 4 for the last half.
  EXPECT_DOUBLE_EQ(ts.mean_over(0, 200), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(0, 50), 0.0);
}

TEST(TimeSeries, RecordBackwardsRaisesInvariant) {
  TimeSeries ts;
  ts.record(10, 1.0);
  ts.record(10, 2.0);  // equal timestamps are fine (last wins)
  EXPECT_THROW(ts.record(5, 3.0), validate::InvariantError);
}

TEST(TimeSeries, Resample) {
  TimeSeries ts;
  ts.record(0, 1.0);
  ts.record(10, 2.0);
  auto grid = ts.resample(0, 20, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid[0], 1.0);
  EXPECT_DOUBLE_EQ(grid[1], 1.0);
  EXPECT_DOUBLE_EQ(grid[2], 2.0);
  EXPECT_DOUBLE_EQ(grid[4], 2.0);
}

}  // namespace
}  // namespace intox::sim
