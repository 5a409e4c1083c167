// KnobSet: strict typed parsing with one-line diagnostics — reject,
// don't default.
#include "scenario/knob.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace intox::scenario {
namespace {

KnobSet sample() {
  KnobSet knobs;
  knobs.declare_u64("trials", 8, "trial count", 1, 100);
  knobs.declare_double("floor", 0.5, "accuracy floor", 0.0, 1.0);
  return knobs;
}

TEST(KnobSet, DefaultsAreVisibleThroughTypedAccessors) {
  const KnobSet knobs = sample();
  EXPECT_EQ(knobs.u("trials"), 8u);
  EXPECT_DOUBLE_EQ(knobs.d("floor"), 0.5);
}

TEST(KnobSet, SetParsesEveryKind) {
  KnobSet knobs = sample();
  EXPECT_EQ(knobs.set("trials", "42"), "");
  EXPECT_EQ(knobs.set("floor", "0.75"), "");
  EXPECT_EQ(knobs.u("trials"), 42u);
  EXPECT_DOUBLE_EQ(knobs.d("floor"), 0.75);
}

TEST(KnobSet, UnknownKeyNamesTheDeclaredKnobs) {
  KnobSet knobs = sample();
  const std::string err = knobs.set("bogus", "1");
  EXPECT_NE(err.find("unknown knob 'bogus'"), std::string::npos) << err;
  EXPECT_NE(err.find("trials"), std::string::npos) << err;
}

TEST(KnobSet, MalformedValuesAreRejected) {
  KnobSet knobs = sample();
  EXPECT_NE(knobs.set("trials", "abc"), "");
  EXPECT_NE(knobs.set("trials", "-3"), "");
  EXPECT_NE(knobs.set("trials", "12x"), "");
  EXPECT_NE(knobs.set("floor", "fast"), "");
  // The stored values stay untouched after a rejected set.
  EXPECT_EQ(knobs.u("trials"), 8u);
  EXPECT_DOUBLE_EQ(knobs.d("floor"), 0.5);
}

// A u64 knob takes decimal digits only, in range: " -5" must not wrap to
// 2^64 - 5, nor an overflow clamp to 2^64 - 1. The knob has no range, so
// only the parser can refuse them.
TEST(KnobSet, U64TakesOnlyInRangeDigits) {
  KnobSet knobs;
  knobs.declare_u64("seed", 1, "seed");
  for (const char* bad : {" -5", "-5", " 5", "+5", "5 ", "0x10", "",
                          "18446744073709551616"}) {
    EXPECT_EQ(knobs.set("seed", bad),
              std::string("knob 'seed' expects an unsigned integer, got '") +
                  bad + "'")
        << bad;
  }
  EXPECT_EQ(knobs.u("seed"), 1u);
  EXPECT_EQ(knobs.set("seed", "18446744073709551615"), "");
  EXPECT_EQ(knobs.u("seed"), UINT64_MAX);
  EXPECT_EQ(knobs.set("seed", "007"), "");
  EXPECT_EQ(knobs.u("seed"), 7u);
}

// A double knob takes all of its text as one finite decimal number:
// strtod also read nan (which passed every range check), leading
// whitespace, a '+' and hex floats.
TEST(KnobSet, DoubleTakesOnlyFiniteDecimalText) {
  KnobSet knobs = sample();
  for (const char* bad : {"nan", "-nan", "NAN", "inf", "-inf", " 0.5",
                          "0.5 ", "+0.5", "0x0.8p0", "1e999", ""}) {
    EXPECT_EQ(knobs.set("floor", bad),
              std::string("knob 'floor' expects a finite number, got '") +
                  bad + "'")
        << bad;
  }
  EXPECT_DOUBLE_EQ(knobs.d("floor"), 0.5);
  EXPECT_EQ(knobs.set("floor", "1e-3"), "");
  EXPECT_DOUBLE_EQ(knobs.d("floor"), 0.001);
  EXPECT_EQ(knobs.set("floor", ".25"), "");
  EXPECT_DOUBLE_EQ(knobs.d("floor"), 0.25);
}

TEST(KnobSet, RangeViolationsAreRejected) {
  KnobSet knobs = sample();
  EXPECT_NE(knobs.set("trials", "0"), "");
  EXPECT_NE(knobs.set("trials", "101"), "");
  EXPECT_NE(knobs.set("floor", "1.5"), "");
  EXPECT_EQ(knobs.set("trials", "1"), "");
  EXPECT_EQ(knobs.set("trials", "100"), "");
}

TEST(KnobSet, WrongKindAccessIsAProgrammingError) {
  const KnobSet knobs = sample();
  EXPECT_THROW((void)knobs.u("floor"), std::logic_error);
  EXPECT_THROW((void)knobs.d("trials"), std::logic_error);
  EXPECT_THROW((void)knobs.u("nope"), std::logic_error);
}

TEST(KnobSet, FindExposesDeclaredMetadata) {
  const KnobSet knobs = sample();
  const Knob* k = knobs.find("trials");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->kind, KnobKind::kU64);
  EXPECT_TRUE(k->has_range);
  EXPECT_EQ(k->default_text, "8");
  EXPECT_EQ(knobs.find("nope"), nullptr);
}

}  // namespace
}  // namespace intox::scenario
