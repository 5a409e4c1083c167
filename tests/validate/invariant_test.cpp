#include "validate/invariant.hpp"

#include <gtest/gtest.h>

#include <string>

namespace intox::validate {
namespace {

TEST(Invariant, PassingConditionIsFree) {
  EXPECT_NO_THROW(INTOX_INVARIANT(1 + 1 == 2, "arithmetic broke"));
}

TEST(Invariant, ThrowModeThrowsWithFormattedMessage) {
  try {
    INTOX_INVARIANT(false, "lost %d of %d shards", 3, 8);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant violated"), std::string::npos);
    EXPECT_NE(what.find("lost 3 of 8 shards"), std::string::npos);
    // The path is relative to the checkout, whatever directory built it.
    EXPECT_EQ(what.rfind("tests/validate/invariant_test.cpp:", 0), 0u)
        << what;
  }
}

TEST(Invariant, ConditionEvaluatedExactlyOnce) {
  int evals = 0;
  auto touch = [&evals](bool result) {
    ++evals;
    return result;
  };
  INTOX_INVARIANT(touch(true), "side effects must not double-fire");
  EXPECT_EQ(evals, 1);
  EXPECT_THROW(INTOX_INVARIANT(touch(false), "failing once"),
               InvariantError);
  EXPECT_EQ(evals, 2);
}

}  // namespace
}  // namespace intox::validate
