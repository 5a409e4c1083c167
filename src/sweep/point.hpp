// Sweep-point enumeration: the declarative half of `intox sweep`.
//
// A sweep is a cross product of axes, each parsed from `intox sweep`'s
// `--sweep key=a:b:step` syntax. This layer turns the axes into a
// deterministic point list — point i is a (key, value) vector over the
// swept knobs, enumerated row-major (the first `--sweep` flag varies
// slowest) — which the orchestrator hands to worker `intox run`
// processes as `--set key=value` flags and caches by knob vector.
//
// Values are materialized as `lo + i * step` from an integer index —
// never by repeated accumulation, which over long ranges drifts enough
// to drop or duplicate the endpoint (the 1e4-step regression in
// tests/sweep/point_test.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "scenario/knob.hpp"

namespace intox::sweep {

/// One `--sweep key=a:b:step` axis, with every value pre-rendered
/// exactly as `KnobSet::set` (and a worker's `--set`) will receive it.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Parses `key=a:b:step` against the declared knobs; a, b and step are
/// finite numbers. Returns empty on success and fills *out, else the
/// one-line diagnostic to print. The value list is endpoint-exact:
/// `0:1:0.1` yields 11 values ending in "1", for any range length.
std::string parse_sweep_axis(const std::string& text,
                             const scenario::KnobSet& knobs, SweepAxis* out);

/// The cross-product size of `axes` (1 for no axes: the base config is
/// itself a single point). Returns 0 if the product would overflow the
/// kMaxSweepPoints guard.
std::size_t point_count(const std::vector<SweepAxis>& axes);

/// Ceiling on enumerable points; larger products are a config error
/// (the orchestrator would need > 10^7 cache entries).
inline constexpr std::size_t kMaxSweepPoints = 10'000'000;

/// One point of the cross product: (key, value) pairs in axis order.
using Point = std::vector<std::pair<std::string, std::string>>;

/// Materializes point `index` (0-based, row-major: the last axis varies
/// fastest). index must be < point_count(axes).
Point point_at(const std::vector<SweepAxis>& axes, std::size_t index);

/// The `[sweep] k=v k2=v2` banner body for a point (space-separated, in
/// axis order), which `intox sweep` prints before the point's stdout.
std::string point_banner(const Point& point);

}  // namespace intox::sweep
