#include "pcc/attacker.hpp"

#include <algorithm>

#include "obs/flightrec.hpp"
#include "pcc/utility.hpp"

namespace intox::pcc {

PccMitm::PccMitm(sim::Scheduler& sched, const PccMitmConfig& config,
                 SenderResolver resolver)
    : sched_(sched), config_(config), resolver_(std::move(resolver)),
      rng_(config.seed) {}

void PccMitm::attach(sim::Link& link) {
  link.set_tap([this](net::Packet& pkt) { return on_packet(pkt); });
}

sim::TapAction PccMitm::on_packet(net::Packet& pkt) {
  ++observed_;
  const sim::TapAction action = config_.mode == PccMitmConfig::Mode::kOmniscient
                                    ? omniscient(pkt)
                                    : shaper(pkt);
  if (action == sim::TapAction::kDrop) {
    ++dropped_;
    obs::flightrec_record(
        obs::FrType::kAttackerAction,
        static_cast<std::uint64_t>(sched_.now()),
        static_cast<std::uint64_t>(obs::FrAttackerKind::kPccMitmDrop),
        config_.mode == PccMitmConfig::Mode::kOmniscient ? 0 : 1, dropped_);
  }
  return action;
}

sim::TapAction PccMitm::omniscient(const net::Packet& pkt) {
  const PccSender* sender = resolver_(pkt);
  if (!sender) return sim::TapAction::kForward;
  const MiPhase phase = sender->current_phase();
  const double rate = sender->current_mi_rate();
  const double eps = sender->epsilon();
  auto [it, inserted] = memo_.try_emplace(sender);
  Memo& m = it->second;
  if (inserted || m.phase != phase || m.rate != rate || m.eps != eps) {
    m = Memo{phase, rate, eps, drop_prob(phase, rate, eps)};
  }
  return (m.drop_prob > 0.0 && rng_.bernoulli(m.drop_prob))
             ? sim::TapAction::kDrop
             : sim::TapAction::kForward;
}

double PccMitm::drop_prob(MiPhase phase, double rate, double eps) const {
  switch (phase) {
    case MiPhase::kUp:
    case MiPhase::kDown: {
      // Rig *both* experiment arms to one common target utility, chosen
      // safely below what either arm would observe cleanly, by inverting
      // the (public) utility function per arm. The realized utilities
      // then differ only by sampling noise, so the experiment's winner
      // is random: mostly inconclusive, and epsilon escalates to its 5%
      // cap — the paper's oscillation.
      const double base = phase == MiPhase::kUp ? rate / (1.0 + eps)
                                                : rate / (1.0 - eps);
      const double target = utility(base * (1.0 - 2.0 * eps), 0.0);
      return loss_for_target_utility(rate, target);
    }
    case MiPhase::kWaiting:
      break;  // hold intervals are not part of any experiment
    case MiPhase::kAdjusting:
      // Any move away from the base gets punished so utility regresses
      // and the sender falls back into (rigged) experiments.
      return loss_for_target_utility(rate, utility(rate * 0.97, 0.0));
    case MiPhase::kStarting:
      if (config_.pin_rate_bps > 0.0 && rate > config_.pin_rate_bps) {
        const double target = utility(config_.pin_rate_bps, 0.0);
        return loss_for_target_utility(rate, target);
      }
      break;
  }
  return 0.0;
}

sim::TapAction PccMitm::shaper(const net::Packet& pkt) {
  const sim::Time now = sched_.now();
  if (now - window_start_ >= config_.window) {
    const double elapsed_s = sim::to_seconds(now - window_start_);
    if (elapsed_s > 0.0 && window_bytes_ > 0.0) {
      // Baseline tracks the *offered* rate (everything the attacker
      // observes, dropped or not): the estimate follows the flow's base
      // rate instead of chasing its own censoring downwards.
      const double rate = window_bytes_ * 8.0 / elapsed_s;
      baseline_bps_ = baseline_bps_ <= 0.0
                          ? rate
                          : (1.0 - config_.baseline_gain) * baseline_bps_ +
                                config_.baseline_gain * rate;
    }
    window_bytes_ = 0.0;
    window_start_ = now;
  }
  // Shave only the excess above the learned baseline: each window has a
  // byte budget of baseline*window; the packet that crosses the boundary
  // still passes (packet-granularity slack), everything beyond drops.
  // The +eps probe's extra packets are exactly what exceeds the budget.
  const double budget_bytes =
      baseline_bps_ * sim::to_seconds(config_.window) / 8.0;
  const bool over_budget =
      baseline_bps_ > 0.0 && window_bytes_ > budget_bytes;
  window_bytes_ += pkt.size_bytes();
  return over_budget ? sim::TapAction::kDrop : sim::TapAction::kForward;
}

}  // namespace intox::pcc
