// Simulated time.
//
// Time is a signed 64-bit count of nanoseconds since the start of the
// simulation. Signed so that subtraction is safe; 64 bits gives ~292 years
// of range, far beyond any experiment here.
#pragma once

#include <cstdint>

namespace intox::sim {

using Time = std::int64_t;      // absolute, ns since simulation start
using Duration = std::int64_t;  // relative, ns

/// Largest representable instant. A schedule_after delay that would
/// carry past it violates an invariant instead of wrapping into the
/// past.
inline constexpr Time kTimeMax = INT64_MAX;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;
inline constexpr Duration kMinute = 60 * kSecond;

/// Converts seconds (possibly fractional) to a Duration.
constexpr Duration seconds(double s) {
  return static_cast<Duration>(s * static_cast<double>(kSecond));
}
constexpr Duration millis(double ms) {
  return static_cast<Duration>(ms * static_cast<double>(kMillisecond));
}

/// Converts a Duration to fractional seconds (for reporting).
constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

}  // namespace intox::sim
