// Pytheas attack experiments (PYTH-QOE and PYTH-CDN in DESIGN.md).
//
// PYTH-QOE — report poisoning (§4.1): bots join the victim group and lie:
// they report terrible QoE whenever they are assigned the genuinely-best
// arm and perfect QoE on the bad arm, and they amplify their report
// volume (reports are unauthenticated, so nothing limits a client to one
// report per chunk). Past a modest poisoned-report share, the group
// decision flips and *every* legitimate client gets the worse arm.
//
// PYTH-CDN — MitM steering (§4.1): an on-path attacker throttles the
// traffic of one CDN site, degrading the *true* QoE its users measure.
// Pytheas dutifully migrates entire groups to the other site, whose
// load-dependent QoE then collapses — the attacker overloads a site it
// never touched.
#pragma once

#include <cstdint>
#include <vector>

#include "pytheas/engine.hpp"
#include "sim/stats.hpp"

namespace intox::pytheas {

/// Ground-truth QoE model: per-arm base quality, Gaussian measurement
/// noise, and a soft capacity knee per arm (for the CDN experiment).
struct QoeModel {
  std::vector<double> arm_base{4.5, 3.0};
  double noise_sigma = 0.3;
  /// Sessions an arm can serve at full quality; 0 = unlimited.
  std::vector<double> arm_capacity{0.0, 0.0};
  /// QoE lost per unit of relative overload.
  double overload_penalty = 3.0;

  [[nodiscard]] double true_qoe(ArmId arm, double arm_load,
                                sim::Rng& rng) const;
};

struct PoisonConfig {
  std::size_t legit_sessions = 200;
  std::size_t bot_sessions = 20;
  /// Reports each bot submits per epoch (legit clients submit 1).
  std::size_t bot_amplification = 3;
  std::size_t epochs = 120;
  /// Epochs before the bots switch on (lets the group converge first).
  std::size_t warmup_epochs = 30;
  EngineConfig engine{};
  QoeModel model{};
  std::uint64_t seed = 1;
};

struct PoisonResult {
  /// Mean true QoE of legitimate sessions, per epoch.
  sim::TimeSeries legit_qoe;
  double mean_qoe_before = 0.0;  // over the warmup tail
  double mean_qoe_after = 0.0;   // over the attacked tail
  /// Fraction of post-warmup epochs in which the group exploited the
  /// genuinely-worse arm.
  double flipped_fraction = 0.0;
  std::uint64_t filtered_reports = 0;
};

/// Optional defense is installed via `engine.set_filter` by the caller —
/// see supervisor/pytheas_guard.hpp.
PoisonResult run_poisoning_experiment(
    const PoisonConfig& config, std::shared_ptr<ReportFilter> filter = {});

// PYTH-MITM — the §4.1 middle variant: "MitM attackers can achieve
// similar outcomes if they drop packets for a subset of the group
// members." All reports stay honest; the attacker genuinely degrades the
// QoE a subset of members *measures* on the good arm. The group decision
// then drags every untouched member down with it — the collateral-damage
// property of group-granularity control.
struct MitmQoeConfig {
  std::size_t sessions = 200;
  /// Fraction of members whose good-arm traffic the MitM degrades.
  double victim_fraction = 0.45;
  /// True-QoE penalty the drops inflict on victims using the good arm.
  double degradation = 4.0;
  std::size_t epochs = 120;
  std::size_t attack_start_epoch = 30;
  EngineConfig engine{};
  QoeModel model{};
  std::uint64_t seed = 1;
};

struct MitmQoeResult {
  /// Mean true QoE of the *untouched* members, per epoch.
  sim::TimeSeries untouched_qoe;
  double untouched_before = 0.0;
  double untouched_after = 0.0;
  double flipped_fraction = 0.0;
  /// Fraction of all traffic the MitM actually degraded.
  double touched_share = 0.0;
};

/// Optional defense (§5: "look at the distribution of throughput across
/// all clients in a group ... the low-throughput clients can be tackled
/// separately") installed via the same ReportFilter hook as the
/// poisoning experiment.
MitmQoeResult run_mitm_qoe_experiment(
    const MitmQoeConfig& config, std::shared_ptr<ReportFilter> filter = {});

struct CdnConfig {
  std::size_t sessions = 300;
  std::size_t epochs = 150;
  std::size_t attack_start_epoch = 50;
  /// Relative throttle the MitM applies to arm-0 traffic (QoE subtracted).
  double throttle_penalty = 2.5;
  EngineConfig engine{};
  QoeModel model{};
  std::uint64_t seed = 1;
};

struct CdnResult {
  sim::TimeSeries site0_load;  // sessions exploiting site 0, per epoch
  sim::TimeSeries site1_load;
  sim::TimeSeries mean_qoe;
  /// Peak load seen by site 1 after the attack vs its capacity.
  double site1_peak_overload = 0.0;
  double qoe_before = 0.0;
  double qoe_after = 0.0;
};

CdnResult run_cdn_experiment(const CdnConfig& config);

/// The CDN bench/scenario default: site 0 is better and bigger, site 1
/// cannot hold the whole group — the configuration under which the
/// stampede overload manifests. A clean control is this config with
/// attack_start_epoch pushed past the horizon.
CdnConfig default_cdn_attack_config();

}  // namespace intox::pytheas
