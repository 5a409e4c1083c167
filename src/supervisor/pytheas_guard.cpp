#include "supervisor/pytheas_guard.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace intox::supervisor {

namespace {

/// Median (upper for even sizes) of `v`, which it reorders.
double median_in_place(std::vector<double>& v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

bool PytheasGuard::admit(const pytheas::SessionFeatures& group,
                         const pytheas::QoeReport& report) {
  ++stats_.assessed;

  // Check 1: per-session rate limit within the sliding window.
  auto& [window_start, count] = session_window_[report.session];
  if (report.when - window_start >= config_.window) {
    window_start = report.when;
    count = 0;
  }
  if (++count > config_.max_reports_per_window) {
    ++rate_limited_;
    ++stats_.denied;
    return false;
  }

  // Check 2: robust outlier quarantine against (group, arm) history.
  const auto key = std::make_pair(pytheas::GroupKeyHash{}(group), report.arm);
  ArmHistory& hist = history_[key];
  if (hist.values.size() >= config_.warmup_reports) {
    scratch_.assign(hist.values.begin(), hist.values.end());
    const double med = median_in_place(scratch_);
    for (double& v : scratch_) v = std::abs(v - med);
    const double mad = median_in_place(scratch_);
    if (std::abs(report.qoe - med) >
        config_.outlier_k * mad + config_.outlier_slack) {
      ++quarantined_;
      ++stats_.denied;
      return false;
    }
  }

  hist.values.push_back(report.qoe);
  if (hist.values.size() > config_.history) hist.values.pop_front();
  return true;
}

}  // namespace intox::supervisor
