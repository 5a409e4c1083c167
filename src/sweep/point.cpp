#include "sweep/point.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace intox::sweep {

namespace {

/// Number of values in [lo, hi] at the given stride. The count comes
/// from one division (plus a relative epsilon so 10/0.001 — which
/// floating-point division lands just *below* 10000 — still includes
/// its endpoint), never from accumulation.
std::size_t range_count(double lo, double hi, double step) {
  const double span = (hi - lo) / step;
  auto n = static_cast<std::size_t>(std::floor(span + 1e-9 * (span + 1.0)));
  // One guarded correction each way: the epsilon above may overshoot
  // into a value beyond hi, or fp division may still undershoot the
  // exact endpoint.
  const double tol = step * 1e-9;
  while (n > 0 && lo + static_cast<double>(n) * step > hi + tol) --n;
  if (lo + static_cast<double>(n + 1) * step <= hi + tol) ++n;
  return n + 1;
}

}  // namespace

std::string parse_sweep_axis(const std::string& text,
                             const scenario::KnobSet& knobs, SweepAxis* out) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return "--sweep expects key=a:b:step, got '" + text + "'";
  }
  out->key = text.substr(0, eq);
  const scenario::Knob* knob = knobs.find(out->key);
  if (knob == nullptr) {
    return "--sweep: unknown knob '" + out->key + "'";
  }
  const std::string range = text.substr(eq + 1);
  double parts[3];
  std::size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    const auto colon = range.find(':', pos);
    const bool last = i == 2;
    if (last != (colon == std::string::npos)) {
      return "--sweep expects key=a:b:step, got '" + text + "'";
    }
    const std::string piece =
        last ? range.substr(pos) : range.substr(pos, colon - pos);
    if (!scenario::parse_double(piece, &parts[i])) {
      return "--sweep: '" + piece + "' in '" + text +
             "' is not a finite number";
    }
    pos = colon == std::string::npos ? range.size() : colon + 1;
  }
  const double lo = parts[0], hi = parts[1], step = parts[2];
  if (step <= 0.0) return "--sweep: step must be > 0 in '" + text + "'";
  if (lo > hi) return "--sweep: empty range in '" + text + "' (a > b)";
  // Refused before range_count casts it: a span this long has more
  // values than a whole sweep may have points.
  if ((hi - lo) / step >= static_cast<double>(kMaxSweepPoints)) {
    return "--sweep cross product exceeds " +
           std::to_string(kMaxSweepPoints) + " points";
  }

  const std::size_t count = range_count(lo, hi, step);
  out->values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    double v = lo + static_cast<double>(i) * step;
    // Snap the last value onto the declared endpoint when the product
    // lands within one epsilon of it, so `0:10:0.001` ends in exactly
    // "10" rather than 10 ± 2 ulp.
    if (i + 1 == count && std::fabs(v - hi) <= step * 1e-9) v = hi;
    char buf[64];
    if (knob->kind == scenario::KnobKind::kU64) {
      const double rounded = std::round(v);
      if (std::fabs(v - rounded) > 1e-6) {
        return "--sweep: integer knob '" + out->key +
               "' hit non-integer value in '" + text + "'";
      }
      // Checked before the cast, which would wrap a negative value and
      // is undefined from 2^64 up.
      if (!(rounded >= 0.0 && rounded < 0x1p64)) {
        return "--sweep: integer knob '" + out->key +
               "' hit a value outside [0, 2^64) in '" + text + "'";
      }
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(rounded));
    } else {
      std::snprintf(buf, sizeof buf, "%.12g", v);
    }
    // Values only grow, so any two that render alike are neighbours;
    // they would run one configuration twice under one cache key.
    if (!out->values.empty() && out->values.back() == buf) {
      return "--sweep: step '" + range.substr(range.rfind(':') + 1) +
             "' in '" + text + "' is too fine: two values both read '" +
             buf + "'";
    }
    out->values.emplace_back(buf);
  }
  return "";
}

std::size_t point_count(const std::vector<SweepAxis>& axes) {
  std::size_t n = 1;
  for (const SweepAxis& axis : axes) {
    if (axis.values.empty()) return 0;
    if (n > kMaxSweepPoints / axis.values.size()) return 0;
    n *= axis.values.size();
  }
  return n;
}

Point point_at(const std::vector<SweepAxis>& axes, std::size_t index) {
  Point point;
  point.reserve(axes.size());
  // Row-major decode: peel the fastest-varying (last) axis first, then
  // reverse into axis order.
  std::size_t rest = index;
  for (std::size_t a = axes.size(); a > 0; --a) {
    const SweepAxis& axis = axes[a - 1];
    point.emplace_back(axis.key, axis.values[rest % axis.values.size()]);
    rest /= axis.values.size();
  }
  std::reverse(point.begin(), point.end());
  return point;
}

std::string point_banner(const Point& point) {
  std::string banner;
  for (const auto& [key, value] : point) {
    if (!banner.empty()) banner += ' ';
    banner += key + "=" + value;
  }
  return banner;
}

}  // namespace intox::sweep
