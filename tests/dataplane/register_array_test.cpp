#include "dataplane/register_array.hpp"

#include <gtest/gtest.h>

namespace intox::dataplane {
namespace {

TEST(RegisterArray, InitializesToGivenValue) {
  RegisterArray<int> r{4, 7};
  EXPECT_EQ(r.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(r.read(i), 7);
}

TEST(RegisterArray, WriteRead) {
  RegisterArray<int> r{8};
  r.write(3, 42);
  EXPECT_EQ(r.read(3), 42);
  EXPECT_EQ(r.read(2), 0);
}

TEST(RegisterArray, ApplyReadModifyWrite) {
  RegisterArray<int> r{2};
  const int before = r.apply(0, [](int& v) {
    const int old = v;
    v += 5;
    return old;
  });
  EXPECT_EQ(before, 0);
  EXPECT_EQ(r.read(0), 5);
}

TEST(RegisterArray, OutOfRangeThrows) {
  RegisterArray<int> r{4};
  EXPECT_THROW((void)r.read(4), std::out_of_range);
  // A compiler-opaque index keeps the bounds check observable (and the
  // optimizer from flagging a provably-OOB constant access).
  volatile std::size_t big = 100;
  EXPECT_THROW(r.write(big, 1), std::out_of_range);
  EXPECT_THROW(r.apply(4, [](int&) {}), std::out_of_range);
}

TEST(RegisterArray, ResetRestoresInitial) {
  RegisterArray<int> r{3, -1};
  r.write(0, 5);
  r.write(2, 9);
  r.reset();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(r.read(i), -1);
}

}  // namespace
}  // namespace intox::dataplane
