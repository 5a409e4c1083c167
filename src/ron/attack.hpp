// §3.2 RON attack:
//
//   "An attacker in the path between two nodes could drop or delay RON's
//    probes, so as to divert traffic to another next-hop."
//
// The attacker is a MitM on one or more overlay legs. She drops *probes
// only* — data packets pass untouched, so the real path quality never
// changed; only the overlay's perception did. By also degrading the
// probes of competing detours, she steers the overlay onto a relay node
// she controls (traffic interception with a handful of dropped probes).
#pragma once

#include <cstdint>
#include <set>

#include "ron/overlay.hpp"
#include "sim/rng.hpp"

namespace intox::ron {

struct RonAttackConfig {
  /// Probability of dropping a probe (request or reply) on a targeted leg.
  double probe_drop_prob = 1.0;
  /// If false, the attacker drops data on targeted legs too (crude
  /// blackholing — detectable; the paper's point is that probes alone
  /// suffice).
  bool spare_data = true;
  std::uint64_t seed = 1337;
};

class RonProbeAttacker {
 public:
  explicit RonProbeAttacker(const RonAttackConfig& config)
      : config_(config), rng_(config.seed) {}

  /// Installs the attacker on the overlay leg from->to.
  void attach(Overlay& overlay, NodeId from, NodeId to);

  [[nodiscard]] std::uint64_t probes_dropped() const { return probes_dropped_; }

 private:
  RonAttackConfig config_;
  sim::Rng rng_;
  std::uint64_t probes_dropped_ = 0;
};

/// The canonical 4-node diversion experiment:
///   node 0 -> node 1 direct (best), detour via 2 (second best), detour
///   via 3 (worst; node 3 is ATTACKER-CONTROLLED).
/// The attacker drops probes on 0->1 and 0->2. Measures where the route
/// ends up, the data-latency cost, and how little the attacker touched.
struct RonExperimentConfig {
  sim::Duration direct_delay = sim::millis(10);
  sim::Duration via2_leg_delay = sim::millis(12);
  sim::Duration via3_leg_delay = sim::millis(15);
  sim::Duration warmup = sim::seconds(5);
  sim::Duration attack_duration = sim::seconds(20);
  bool attack = true;
  RonAttackConfig attacker{};
  std::uint64_t seed = 1;
};

struct RonExperimentResult {
  bool routed_direct_before = false;
  bool routed_via_attacker_after = false;
  NodeId via_after = 0;
  double mean_latency_before_ms = 0.0;
  double mean_latency_after_ms = 0.0;
  std::uint64_t probes_dropped = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t route_changes = 0;
};

RonExperimentResult run_ron_attack_experiment(
    const RonExperimentConfig& config);

}  // namespace intox::ron
