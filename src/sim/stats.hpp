// Streaming statistics for trial results: running moments, (time,
// value) series, and the per-grid-point fold of many series. Callers
// fold per-trial results with `add`, in trial order.
//
// Aggregation paths raise INTOX_INVARIANT violations instead of
// silently degrading: NaN samples and non-monotonic series timestamps
// are the internal equivalent of the paper's "intoxicated inputs" —
// they corrupt every downstream sweep statistic if allowed through
// quietly.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace intox::sim {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A (time, value) series sampled during a run, e.g. "number of malicious
/// flows in Blink's sample" or "PCC sending rate". Timestamps must be
/// non-decreasing (they are recorded as the simulation advances); a
/// backwards `record` raises an invariant violation.
class TimeSeries {
 public:
  void record(Time t, double value);
  [[nodiscard]] const std::vector<std::pair<Time, double>>& points() const {
    return points_;
  }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// Value at time t (step interpolation: last point at or before t).
  /// Returns `before` if t precedes the first sample.
  [[nodiscard]] double at(Time t, double before = 0.0) const;

  /// Time-weighted mean of the step function over [from, to]: the
  /// integral of `at(t)` divided by the window length. (Before the
  /// integrity pass this was an unweighted average of the points that
  /// happened to fall in the window, which biased bursty series toward
  /// whichever level was sampled most often.) For an empty window
  /// (from == to) returns `at(from)`.
  [[nodiscard]] double mean_over(Time from, Time to) const;

  /// Resamples onto a fixed grid (step interpolation) — handy for
  /// averaging many runs.
  [[nodiscard]] std::vector<double> resample(Time from, Time to,
                                             Duration step) const;

 private:
  std::vector<std::pair<Time, double>> points_;
};

/// Cross-trial aggregate of many (time, value) series: a RunningStats per
/// grid point. Each added series is step-resampled onto the grid, so
/// ragged per-trial sampling is fine.
class SeriesStats {
 public:
  SeriesStats(Time from, Time to, Duration step);
  void add(const TimeSeries& series);
  [[nodiscard]] std::size_t points() const { return cells_.size(); }
  [[nodiscard]] Time time_at(std::size_t i) const {
    return from_ + step_ * static_cast<Time>(i);
  }
  [[nodiscard]] const RunningStats& at(std::size_t i) const {
    return cells_[i];
  }
  /// Number of series folded in so far.
  [[nodiscard]] std::size_t series_count() const { return series_; }

 private:
  Time from_;
  Duration step_;
  std::vector<RunningStats> cells_;
  std::size_t series_ = 0;
};

}  // namespace intox::sim
