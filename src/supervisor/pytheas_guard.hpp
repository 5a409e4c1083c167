// Pytheas defense (§5): per-group report-distribution screening.
//
// "Pytheas could look at the distribution of throughput across all
// clients in a group. If only a few clients exhibit low throughput while
// others exhibit high throughput, this is indicative of either groups
// being ill-formed or malicious inputs from part of the group
// population. Accordingly, the low-throughput clients can be tackled
// separately, removing their impact on the larger population."
//
// Implemented as a PytheasEngine ReportFilter with two independent
// checks:
//   1. per-session rate limiting — a client reporting far more often
//      than its peers is amplifying (reports are per chunk; honest
//      clients produce ~1 per epoch);
//   2. robust outlier quarantine — reports far from the (median, MAD)
//      of recent admitted reports for the same (group, arm) are parked.
#pragma once

#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "pytheas/engine.hpp"
#include "supervisor/supervisor.hpp"

namespace intox::supervisor {

struct PytheasGuardConfig {
  /// Reports admitted per session per window (honest: 1 per epoch).
  std::size_t max_reports_per_window = 2;
  sim::Duration window = sim::seconds(1);  // one epoch in the experiments
  /// Quarantine when |q - median| > outlier_k * MAD + slack.
  double outlier_k = 4.0;
  double outlier_slack = 0.3;
  /// Robust stats warm up on this many admitted reports before the
  /// outlier check activates.
  std::size_t warmup_reports = 30;
  std::size_t history = 200;  // admitted reports kept per (group, arm)
};

class PytheasGuard : public pytheas::ReportFilter {
 public:
  explicit PytheasGuard(const PytheasGuardConfig& config = PytheasGuardConfig{})
      : config_(config) {}

  bool admit(const pytheas::SessionFeatures& group,
             const pytheas::QoeReport& report) override;

  [[nodiscard]] const GuardStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t rate_limited() const { return rate_limited_; }
  [[nodiscard]] std::uint64_t quarantined() const { return quarantined_; }

 private:
  struct ArmHistory {
    std::deque<double> values;
  };

  PytheasGuardConfig config_;
  GuardStats stats_;
  std::uint64_t rate_limited_ = 0;
  std::uint64_t quarantined_ = 0;
  std::map<std::pair<std::size_t, pytheas::ArmId>, ArmHistory> history_;
  std::unordered_map<pytheas::SessionId, std::pair<sim::Time, std::size_t>>
      session_window_;
  /// One (group, arm) history at a time, reordered in place for the
  /// median and then the MAD; kept to spare an allocation per report.
  std::vector<double> scratch_;
};

}  // namespace intox::supervisor
