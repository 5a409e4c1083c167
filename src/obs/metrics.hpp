// Process-wide metrics registry: counters and gauges.
//
// The §5 supervisor architecture is premised on *watching* the data
// plane; this registry is the reproduction's own data plane watching
// itself. It is sized to what it records. Schedulers, links, Blink
// nodes, PCC senders and Pytheas engines count in plain members and
// add each total to the registry once, when they retire; the runner
// adds once per dispatch, the sweep orchestrator once per sweep, and
// the sketches once per pollution run or filter rotation. No site
// records per event, so every metric is one relaxed atomic shared by
// all threads; a new per-event count belongs in a member folded at
// retirement, not in a registry add.
//
//  1. Placement-invariant values. A counter is an integer sum and a
//     gauge a high-water mark (update_max), so both are identical for
//     any thread count: the *work* is identical (trials are seeded by
//     index) and only its placement moves. A point record, and so a
//     merged sweep report, depends only on (binary, scenario, knobs).
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
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

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

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
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
};

}  // namespace intox::obs
