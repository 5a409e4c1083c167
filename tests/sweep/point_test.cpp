// Sweep-point enumeration, including the endpoint regression: the old
// driver accumulated `v += step`, so floating-point drift dropped or
// duplicated range endpoints on long sweeps. Values now come from the
// integer index (`lo + i * step`), which these tests pin.
#include "sweep/point.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/knob.hpp"

namespace intox::sweep {
namespace {

scenario::KnobSet test_knobs() {
  scenario::KnobSet knobs;
  knobs.declare_double("ratio", 0.5, "a double knob");
  knobs.declare_u64("count", 1, "a u64 knob");
  knobs.declare_string("name", "x", "a string knob");
  return knobs;
}

std::vector<std::string> axis_values(const std::string& spec) {
  const scenario::KnobSet knobs = test_knobs();
  SweepAxis axis;
  const std::string err = parse_sweep_axis(spec, knobs, &axis);
  EXPECT_EQ(err, "") << spec;
  return axis.values;
}

TEST(SweepAxis, TenthStepsIncludeTheEndpoint) {
  // 0.1 is not representable in binary; the accumulating loop ended at
  // 0.9999999999999999 and dropped the final point.
  const auto values = axis_values("ratio=0:1:0.1");
  ASSERT_EQ(values.size(), 11u);
  EXPECT_EQ(values.front(), "0");
  EXPECT_EQ(values[1], "0.1");
  EXPECT_EQ(values.back(), "1");
}

TEST(SweepAxis, TenThousandStepsStayEndpointExact) {
  // The regression range from the issue: 1e4 accumulations of 0.001
  // drift by ~1e-13 — enough to lose the endpoint behind the old
  // `step * 1e-9` epsilon. Index arithmetic keeps the count exact and
  // the last value is snapped onto the declared endpoint.
  const auto values = axis_values("ratio=0:10:0.001");
  ASSERT_EQ(values.size(), 10001u);
  EXPECT_EQ(values.front(), "0");
  EXPECT_EQ(values.back(), "10");
}

TEST(SweepAxis, IntegerRangeIsExact) {
  const auto values = axis_values("count=1:4:1");
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values.front(), "1");
  EXPECT_EQ(values.back(), "4");
}

TEST(SweepAxis, DegenerateRangeIsOnePoint) {
  const auto values = axis_values("count=5:5:1");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values.front(), "5");
}

TEST(SweepAxis, StepLargerThanSpanIsOnePoint) {
  const auto values = axis_values("ratio=0.25:0.75:2");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values.front(), "0.25");
}

TEST(SweepAxis, RejectsNonNumericKnobs) {
  const scenario::KnobSet knobs = test_knobs();
  SweepAxis axis;
  EXPECT_NE(parse_sweep_axis("name=0:1:1", knobs, &axis), "");
}

TEST(SweepAxis, RejectsNonIntegerValuesForU64Knobs) {
  const scenario::KnobSet knobs = test_knobs();
  SweepAxis axis;
  EXPECT_NE(parse_sweep_axis("count=1:2:0.5", knobs, &axis), "");
}

TEST(SweepPoints, CountIsTheCrossProduct) {
  const scenario::KnobSet knobs = test_knobs();
  SweepAxis a, b;
  ASSERT_EQ(parse_sweep_axis("count=1:3:1", knobs, &a), "");
  ASSERT_EQ(parse_sweep_axis("ratio=0:1:0.5", knobs, &b), "");
  EXPECT_EQ(point_count({}), 1u);  // the base config is one point
  EXPECT_EQ(point_count({a}), 3u);
  EXPECT_EQ(point_count({a, b}), 9u);
}

TEST(SweepPoints, CountOverflowsToZero) {
  SweepAxis big;
  big.key = "count";
  big.values.assign(100000, "1");
  EXPECT_EQ(point_count({big, big}), 0u);  // 1e10 > kMaxSweepPoints
}

TEST(SweepPoints, LastAxisVariesFastest) {
  const scenario::KnobSet knobs = test_knobs();
  SweepAxis a, b;
  ASSERT_EQ(parse_sweep_axis("count=1:2:1", knobs, &a), "");
  ASSERT_EQ(parse_sweep_axis("ratio=0:1:1", knobs, &b), "");
  const std::vector<SweepAxis> axes{a, b};
  EXPECT_EQ(point_banner(point_at(axes, 0)), "count=1 ratio=0");
  EXPECT_EQ(point_banner(point_at(axes, 1)), "count=1 ratio=1");
  EXPECT_EQ(point_banner(point_at(axes, 2)), "count=2 ratio=0");
  EXPECT_EQ(point_banner(point_at(axes, 3)), "count=2 ratio=1");
}

TEST(SweepPoints, EmptyAxesYieldTheEmptyPoint) {
  const Point p = point_at({}, 0);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(point_banner(p), "");
}

}  // namespace
}  // namespace intox::sweep
