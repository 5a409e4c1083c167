#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "validate/invariant.hpp"

namespace intox::sim {

void RunningStats::add(double x) {
  INTOX_INVARIANT(!std::isnan(x), "RunningStats::add(NaN) would poison the "
                                  "mean of all %zu samples", n_);
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void TimeSeries::record(Time t, double value) {
  INTOX_INVARIANT(points_.empty() || t >= points_.back().first,
                  "TimeSeries::record time went backwards (%lld < %lld); "
                  "at()/mean_over() assume time order",
                  static_cast<long long>(t),
                  static_cast<long long>(points_.back().first));
  points_.push_back({t, value});
}

double TimeSeries::at(Time t, double before) const {
  // points_ is time-ordered by construction (record() enforces it).
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](Time lhs, const auto& p) { return lhs < p.first; });
  if (it == points_.begin()) return before;
  return std::prev(it)->second;
}

double TimeSeries::mean_over(Time from, Time to) const {
  INTOX_INVARIANT(to >= from, "mean_over window is inverted: [%lld, %lld]",
                  static_cast<long long>(from), static_cast<long long>(to));
  if (to <= from) return at(from);
  // Integrate the step function: each segment contributes value * width.
  double integral = 0.0;
  Time seg_start = from;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), from,
      [](Time lhs, const auto& p) { return lhs < p.first; });
  double value = (it == points_.begin()) ? 0.0 : std::prev(it)->second;
  for (; it != points_.end() && it->first < to; ++it) {
    if (it->first > seg_start) {
      integral += value * static_cast<double>(it->first - seg_start);
      seg_start = it->first;
    }
    value = it->second;  // same-timestamp points: the last one wins
  }
  integral += value * static_cast<double>(to - seg_start);
  return integral / static_cast<double>(to - from);
}

std::vector<double> TimeSeries::resample(Time from, Time to,
                                         Duration step) const {
  INTOX_INVARIANT(step > 0, "resample step must be positive (got %lld)",
                  static_cast<long long>(step));
  std::vector<double> out;
  for (Time t = from; t <= to; t += step) out.push_back(at(t));
  return out;
}

SeriesStats::SeriesStats(Time from, Time to, Duration step)
    : from_(from), step_(step) {
  INTOX_INVARIANT(step > 0, "SeriesStats grid step must be positive (got "
                            "%lld)", static_cast<long long>(step));
  INTOX_INVARIANT(to >= from, "SeriesStats grid is inverted: [%lld, %lld]",
                  static_cast<long long>(from), static_cast<long long>(to));
  cells_.resize(static_cast<std::size_t>((to - from) / step) + 1);
}

void SeriesStats::add(const TimeSeries& series) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].add(series.at(time_at(i)));
  }
  ++series_;
}

}  // namespace intox::sim
