// Process-wide metrics registry: counters, gauges, histograms.
//
// The §5 supervisor architecture is premised on *watching* the data
// plane; this registry is the reproduction's own data plane watching
// itself. It is sized to what it records. Schedulers, links, Blink
// nodes, PCC senders and Pytheas engines count in plain members and
// add each total to the registry once, when they retire; the runner
// adds once per dispatch, the sweep orchestrator once per sweep, and
// the sketches once per pollution run or filter rotation. The only
// per-event sites are the two PCC histograms, once per monitor
// interval. So every metric is one set of relaxed atomics shared by
// all threads; a new per-event count belongs in a member folded at
// retirement, not in a registry add.
//
//  1. Placement-invariant values. Counter and histogram-bucket values
//     are integer sums, identical for any thread count, because the
//     *work* is identical (trials are seeded by index) and only its
//     placement moves. Gauges are high-water marks (update_max), also
//     placement-invariant. The one exception is a histogram's running
//     `sum` of double samples: it is added in record order, so one
//     thread's sum is the serial double sum bit for bit, while
//     interleaved threads may move it in the last ulp. Bucket counts,
//     totals, and extremes never move.
//  2. Nothing on stdout. Metrics surface only through the run-report
//     sink (obs/report.hpp), so bench stdout stays byte-identical
//     across `--threads`.
//
// Metric handles are stable for the process lifetime once registered;
// callers look them up once (static local or member) and then record
// lock-free. Registration / snapshot take a mutex — they are cold.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace intox::obs {

/// Monotonic counter: one relaxed atomic.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    // intox-analyze: hot-lane
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// High-water mark. `update_max` is a CAS-max and therefore
/// deterministic under any thread placement.
class Gauge {
 public:
  void update_max(double v) {
    // intox-analyze: hot-lane
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-width histogram over [lo, hi), safe to record into from many
/// threads at once. A sample below lo counts as underflow, one at or
/// above hi as overflow; neither is clamped into an edge bucket. A NaN
/// counts as overflow and leaves sum, min and max alone. `total` counts
/// every sample; `sum`, `min` and `max` cover every non-NaN one.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t buckets);

  void observe(double x);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }

  /// An immutable view — the serialization unit.
  struct Snapshot {
    double lo = 0.0, hi = 0.0;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  double lo_, hi_, width_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// The process-wide registry. Metrics are identified by dotted names
/// ("sim.link.tx_packets"); iteration and serialization are name-sorted
/// so output order never depends on registration order.
class Registry {
 public:
  static Registry& global();

  /// Returns the named metric, creating it on first use. References stay
  /// valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// On re-registration the existing histogram is returned; asking for
  /// different bounds than it was created with violates an invariant.
  HistogramMetric& histogram(std::string_view name, double lo, double hi,
                             std::size_t buckets);

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramMetric::Snapshot> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Serializes a snapshot as the report schema's "metrics" object.
  static std::string to_json(const Snapshot& snap);
  [[nodiscard]] std::string json() const { return to_json(snapshot()); }

  /// Zeroes every registered metric (registrations survive). Test
  /// isolation only.
  void reset_values_for_test();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

}  // namespace intox::obs
