// The §4.2 MitM attacker against PCC.
//
// "Knowing the utility function, the attacker can drop packets in the +ε
// and −ε phases, such that PCC is unable to see a large-enough utility
// difference. PCC then repeats its experiment with increasing ε until a
// threshold of 5%. Thus, the attacker can cause PCC flows to fluctuate
// by ±5%, without allowing them to converge to the right rate."
//
// Two attacker models are provided:
//
//  * kOmniscient — reads the sender's current experiment phase directly
//    (an upper bound on attacker knowledge; per Kerckhoff the attacker
//    already knows the algorithm and utility function, this just skips
//    the timing-estimation step). In +ε intervals it drops exactly
//    enough, computed by inverting the utility function, to pull the +ε
//    arm's utility down to the −ε arm's. The drop rate is a function of
//    the sender's (phase, MI rate, ε), not of the packet, so the
//    inversion runs once per change of that triple per sender.
//
//  * kShaper — a realistic in-path attacker that estimates the flow's
//    baseline rate from packet timing (the monitor interval is
//    observable from the RTT, which "is easy to track in the data
//    plane") and drops whatever exceeds it. The experiment arms then
//    both observe ~the baseline throughput, neutralizing the A/B signal.
//
// Both install as a sim::Link tap, i.e. they have exactly the §2.1 MitM
// privileges: observe, drop.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "pcc/sender.hpp"
#include "sim/link.hpp"

namespace intox::pcc {

struct PccMitmConfig {
  enum class Mode { kOmniscient, kShaper };
  Mode mode = Mode::kOmniscient;
  /// Omniscient mode: also suppress the Starting phase's exponential
  /// growth above this rate (0 disables). Models the attacker keeping the
  /// flow from ever probing past a chosen operating point.
  double pin_rate_bps = 0.0;
  /// Shaper mode: EWMA gain for the baseline-rate estimate.
  double baseline_gain = 0.05;
  /// Shaper mode: rate-estimation window.
  sim::Duration window = sim::millis(30);
  std::uint64_t seed = 99;
};

class PccMitm {
 public:
  /// Maps a packet to the PCC sender state the attacker tracks for it
  /// (omniscient mode). The attacker maintains one logical tracker per
  /// flow, which a data-plane implementation would key by 5-tuple.
  using SenderResolver = std::function<const PccSender*(const net::Packet&)>;

  PccMitm(sim::Scheduler& sched, const PccMitmConfig& config,
          SenderResolver resolver);

  /// Convenience: track a single flow (nullptr allowed in kShaper mode).
  PccMitm(sim::Scheduler& sched, const PccMitmConfig& config,
          const PccSender* sender)
      : PccMitm(sched, config,
                [sender](const net::Packet&) { return sender; }) {}

  /// Installs the attacker on a link (the compromised hop).
  void attach(sim::Link& link);

  [[nodiscard]] std::uint64_t observed() const { return observed_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  /// The last inputs seen for one sender and the drop probability they
  /// give. ε is part of the key: it changes mid-MI (the previous MI's
  /// evaluation lands while the next is in flight, and a guard may clamp
  /// it at any time).
  struct Memo {
    MiPhase phase = MiPhase::kStarting;
    double rate = 0.0;
    double eps = 0.0;
    double drop_prob = 0.0;
  };

  sim::TapAction on_packet(net::Packet& pkt);
  sim::TapAction omniscient(const net::Packet& pkt);
  sim::TapAction shaper(const net::Packet& pkt);
  /// Omniscient mode's drop probability. It must depend on nothing but
  /// its arguments and config_, or the memo would return stale values.
  [[nodiscard]] double drop_prob(MiPhase phase, double rate, double eps) const;

  sim::Scheduler& sched_;
  PccMitmConfig config_;
  SenderResolver resolver_;
  sim::Rng rng_;
  std::uint64_t observed_ = 0;
  std::uint64_t dropped_ = 0;
  std::unordered_map<const PccSender*, Memo> memo_;

  // Shaper state.
  double baseline_bps_ = 0.0;
  double window_bytes_ = 0.0;
  sim::Time window_start_ = 0;
};

}  // namespace intox::pcc
