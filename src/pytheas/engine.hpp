// The Pytheas engine: group-granularity exploration-exploitation over
// client QoE reports.
//
// Sessions register with their critical features and are bucketed into
// groups; each group runs a DiscountedUcb over the decision arms. Each
// epoch, a small exploration fraction of sessions is spread across all
// arms and everyone else exploits the group's current best arm. Reports
// are ingested with **no authentication or weighting** — faithful to the
// original design, and the vulnerability under study.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "pytheas/qoe.hpp"
#include "pytheas/ucb.hpp"
#include "sim/rng.hpp"

namespace intox::pytheas {

struct EngineConfig {
  std::size_t arms = 2;
  UcbConfig ucb{};
  double exploration_fraction = 0.1;
  std::uint64_t seed = 1;
};

/// Optional report filter — the §5 countermeasure hook. Returns false to
/// quarantine a report before it reaches the bandit.
class ReportFilter {
 public:
  virtual ~ReportFilter() = default;
  virtual bool admit(const SessionFeatures& group, const QoeReport& report) = 0;
};

class PytheasEngine {
 public:
  explicit PytheasEngine(const EngineConfig& config);
  /// Publishes lifetime totals (reports, filtered reports, epochs) into
  /// the obs metrics registry at retirement.
  ~PytheasEngine();
  PytheasEngine(const PytheasEngine&) = delete;
  PytheasEngine& operator=(const PytheasEngine&) = delete;

  /// Registers a session; creates its group on first sight.
  void join(SessionId session, const SessionFeatures& features);
  void leave(SessionId session);

  /// The arm this session should use right now (group decision +
  /// exploration). Stable within an epoch.
  [[nodiscard]] ArmId assignment(SessionId session) const;

  /// Ingests one QoE report (bots call this too — that is the point).
  void report(const QoeReport& report);

  /// Closes the epoch: applies discounting, recomputes each group's best
  /// arm and re-deals exploration slots.
  void end_epoch();

  void set_filter(std::shared_ptr<ReportFilter> filter) {
    filter_ = std::move(filter);
  }

  [[nodiscard]] ArmId group_best_arm(const SessionFeatures& features) const;
  [[nodiscard]] const DiscountedUcb* group_bandit(
      const SessionFeatures& features) const;
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] std::uint64_t filtered_reports() const { return filtered_; }
  /// Reports seen by each group this epoch (for distribution defenses).
  [[nodiscard]] const std::vector<QoeReport>* epoch_reports(
      const SessionFeatures& features) const;

 private:
  struct Group {
    DiscountedUcb bandit;
    ArmId best = 0;
    std::uint64_t id = 0;  // creation-order label for forensics records
    std::vector<SessionId> members;
    std::vector<QoeReport> epoch_reports;
    explicit Group(const EngineConfig& cfg) : bandit(cfg.arms, cfg.ucb) {}
  };

  Group* group_of(SessionId session);
  const Group* group_of(SessionId session) const;
  void redeal(Group& group);

  EngineConfig config_;
  sim::Rng rng_;
  std::unordered_map<SessionFeatures, std::unique_ptr<Group>, GroupKeyHash>
      groups_;
  std::unordered_map<SessionId, SessionFeatures> session_group_;
  std::unordered_map<SessionId, ArmId> session_arm_;
  std::shared_ptr<ReportFilter> filter_;
  std::uint64_t reports_ = 0;
  std::uint64_t filtered_ = 0;
  std::uint64_t next_group_id_ = 0;
  std::uint64_t epochs_ended_ = 0;
};

}  // namespace intox::pytheas
