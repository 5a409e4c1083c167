// PCC defense (§5): drop-pattern monitoring and ε clamping.
//
// "PCC could monitor when packets are dropped in every +ε or −ε phase as
// well as limit the amplitude of the oscillations by decreasing the
// range of ε."
//
// The guard subscribes to the sender's per-experiment outcomes. The
// attack signature is: experiments keep ending inconclusive while the
// probe intervals see loss that the hold intervals do not — on a benign
// congested path, loss hits probes and holds alike. After a streak of
// such experiments the guard declares the flow under influence and
// clamps the sender's ε escalation ceiling to ε_min, capping the
// oscillation amplitude the attacker can induce.
#pragma once

#include "pcc/sender.hpp"
#include "supervisor/supervisor.hpp"

namespace intox::supervisor {

struct PccGuardConfig {
  /// Consecutive suspicious experiments before intervening.
  int streak_to_trigger = 4;
  /// "Probe-targeted loss": the -eps arm's loss must exceed the
  /// hold-interval loss by this much to count as suspicious (a slower
  /// probe seeing *more* loss than the base rate cannot be congestion).
  double loss_gap = 0.005;
  /// Clamp value applied on detection.
  double clamped_epsilon = 0.01;
};

class PccGuard {
 public:
  PccGuard(pcc::PccSender& sender,
           const PccGuardConfig& config = PccGuardConfig{});

  /// Judges one experiment outcome (invoked automatically via the
  /// sender's observer hook; public so tests and offline analyzers can
  /// replay recorded outcomes).
  void observe(const pcc::PccSender::ExperimentOutcome& outcome);

  [[nodiscard]] bool detected() const { return detected_; }
  [[nodiscard]] const GuardStats& stats() const { return stats_; }

 private:
  pcc::PccSender& sender_;
  PccGuardConfig config_;
  int streak_ = 0;
  bool detected_ = false;
  GuardStats stats_;
};

}  // namespace intox::supervisor
