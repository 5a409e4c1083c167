// Sweep-point enumeration, including the endpoint regression: the old
// driver accumulated `v += step`, so floating-point drift dropped or
// duplicated range endpoints on long sweeps. Values now come from the
// integer index (`lo + i * step`), which these tests pin.
#include "sweep/point.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "scenario/knob.hpp"

namespace intox::sweep {
namespace {

scenario::KnobSet test_knobs() {
  scenario::KnobSet knobs;
  knobs.declare_double("ratio", 0.5, "a double knob", 0.0, 10.0);
  knobs.declare_u64("count", 1, "a u64 knob");
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

TEST(SweepAxis, RejectsNonIntegerValuesForU64Knobs) {
  const scenario::KnobSet knobs = test_knobs();
  SweepAxis axis;
  EXPECT_NE(parse_sweep_axis("count=1:2:0.5", knobs, &axis), "");
}

std::string axis_error(const std::string& spec) {
  const scenario::KnobSet knobs = test_knobs();
  SweepAxis axis;
  return parse_sweep_axis(spec, knobs, &axis);
}

// a, b and step are each all of their text as one finite number. With
// strtod, a nan step threw std::length_error from the value list's
// reserve, and an inf step made the one point ratio=nan (0 * inf).
TEST(SweepAxis, BoundsAndStepAreFiniteDecimalNumbers) {
  const std::pair<const char*, const char*> cases[] = {
      {"count=1:2:nan", "nan"}, {"ratio=1:2:inf", "inf"},
      {"ratio=nan:1:1", "nan"}, {"ratio=0:inf:1", "inf"},
      {"ratio=-inf:0:1", "-inf"}, {"ratio= 0:1:1", " 0"},
      {"ratio=+0:1:1", "+0"}, {"ratio=0x1:2:1", "0x1"}};
  for (const auto& [spec, piece] : cases) {
    EXPECT_EQ(axis_error(spec), std::string("--sweep: '") + piece +
                                    "' in '" + spec +
                                    "' is not a finite number");
  }
}

// A u64 value outside [0, 2^64) is refused before the cast, which
// wrapped -5 to 18446744073709551611 and 2e19 to 0.
TEST(SweepAxis, U64ValuesStayInsideU64) {
  for (const char* spec : {"count=-5:5:5", "count=1e19:2e19:1e19"}) {
    EXPECT_EQ(axis_error(spec),
              std::string("--sweep: integer knob 'count' hit a value "
                          "outside [0, 2^64) in '") +
                  spec + "'");
  }
  const auto values = axis_values("count=0:1e19:1e19");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values.back(), "10000000000000000000");
}

// An axis with more values than a sweep may have points is refused
// before its value count is cast from a double.
TEST(SweepAxis, RefusesMoreValuesThanASweepHolds) {
  for (const char* spec : {"count=1:1e300:1", "ratio=0:1:1e-300"}) {
    EXPECT_EQ(axis_error(spec),
              "--sweep cross product exceeds 10000000 points")
        << spec;
  }
}

// Two consecutive values that render alike would run one configuration
// twice under one cache key: a double step below the 12 significant
// digits values are rendered with, or a u64 step below a double's
// spacing past 2^53 (9007199254740992 + 1 rounds back to itself).
TEST(SweepAxis, RefusesAStepWhoseValuesRenderAlike) {
  for (const auto& [spec, value] :
       {std::pair<const char*, const char*>{
            "ratio=0.5:0.5000000000002:1e-13", "0.5"},
        {"count=9007199254740992:9007199254740994:1", "9007199254740992"}}) {
    const std::string step = std::string(spec).substr(
        std::string(spec).rfind(':') + 1);
    EXPECT_EQ(axis_error(spec), "--sweep: step '" + step + "' in '" + spec +
                                    "' is too fine: two values both read '" +
                                    value + "'");
  }
  // Steps that still render apart keep every value.
  EXPECT_EQ(axis_values("ratio=0.5:0.5000000002:1e-10"),
            (std::vector<std::string>{"0.5", "0.5000000001",
                                      "0.5000000002"}));
  EXPECT_EQ(axis_values("count=9007199254740992:9007199254740996:2"),
            (std::vector<std::string>{"9007199254740992", "9007199254740994",
                                      "9007199254740996"}));
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
