#include "pytheas/experiment.hpp"

#include <algorithm>

namespace intox::pytheas {

double QoeModel::true_qoe(ArmId arm, double arm_load, sim::Rng& rng) const {
  double q = arm_base.at(arm);
  if (arm < arm_capacity.size() && arm_capacity[arm] > 0.0 &&
      arm_load > arm_capacity[arm]) {
    q -= overload_penalty * (arm_load - arm_capacity[arm]) / arm_capacity[arm];
  }
  q += rng.normal(0.0, noise_sigma);
  return std::clamp(q, kQoeMin, kQoeMax);
}

namespace {

/// Best arm by ground truth (unloaded), used to score outcomes.
ArmId truly_best_arm(const QoeModel& model) {
  return static_cast<ArmId>(
      std::max_element(model.arm_base.begin(), model.arm_base.end()) -
      model.arm_base.begin());
}

ArmId truly_worst_arm(const QoeModel& model) {
  return static_cast<ArmId>(
      std::min_element(model.arm_base.begin(), model.arm_base.end()) -
      model.arm_base.begin());
}

}  // namespace

PoisonResult run_poisoning_experiment(const PoisonConfig& config,
                                      std::shared_ptr<ReportFilter> filter) {
  sim::Rng rng{config.seed};
  PytheasEngine engine{config.engine};
  if (filter) engine.set_filter(filter);

  const SessionFeatures group{
      .asn = 64500, .location = "zrh", .content = "vod"};
  const ArmId good = truly_best_arm(config.model);
  const ArmId bad = truly_worst_arm(config.model);

  SessionId next = 1;
  std::vector<SessionId> legit, bots;
  for (std::size_t i = 0; i < config.legit_sessions; ++i) {
    legit.push_back(next);
    engine.join(next++, group);
  }
  for (std::size_t i = 0; i < config.bot_sessions; ++i) {
    bots.push_back(next);
    engine.join(next++, group);
  }

  PoisonResult result;
  sim::RunningStats before, after;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const sim::Time now = sim::seconds(static_cast<double>(epoch));
    const bool attacking = epoch >= config.warmup_epochs;

    // Legitimate clients: play a chunk on their assigned arm, measure,
    // report honestly.
    sim::RunningStats epoch_qoe;
    for (SessionId s : legit) {
      const ArmId arm = engine.assignment(s);
      const double q = config.model.true_qoe(arm, 0.0, rng);
      epoch_qoe.add(q);
      engine.report({s, arm, q, now});
    }

    // Bots: poison in both directions, with amplification.
    if (attacking) {
      for (SessionId s : bots) {
        const ArmId arm = engine.assignment(s);
        const double lie = arm == good ? kQoeMin : kQoeMax;
        for (std::size_t r = 0; r < config.bot_amplification; ++r) {
          engine.report({s, arm, lie, now});
        }
      }
    }

    result.legit_qoe.record(now, epoch_qoe.mean());

    if (epoch + 10 >= config.warmup_epochs && epoch < config.warmup_epochs) {
      before.add(epoch_qoe.mean());
    }
    if (epoch >= config.epochs - 30) {
      after.add(epoch_qoe.mean());
      if (engine.group_best_arm(group) == bad) {
        result.flipped_fraction += 1.0 / 30.0;
      }
    }
    engine.end_epoch();
  }

  result.mean_qoe_before = before.mean();
  result.mean_qoe_after = after.mean();
  result.filtered_reports = engine.filtered_reports();
  return result;
}

MitmQoeResult run_mitm_qoe_experiment(const MitmQoeConfig& config,
                                      std::shared_ptr<ReportFilter> filter) {
  sim::Rng rng{config.seed};
  PytheasEngine engine{config.engine};
  if (filter) engine.set_filter(std::move(filter));
  const SessionFeatures group{
      .asn = 64502, .location = "fra", .content = "vod"};
  const ArmId good = truly_best_arm(config.model);
  const ArmId bad = truly_worst_arm(config.model);

  std::vector<SessionId> members;
  SessionId next = 1;
  for (std::size_t i = 0; i < config.sessions; ++i) {
    members.push_back(next);
    engine.join(next++, group);
  }
  // The MitM picks its victims by what it can see on the compromised
  // link: a stable subset of the group.
  const auto victims = static_cast<std::size_t>(
      config.victim_fraction * static_cast<double>(config.sessions));

  MitmQoeResult result;
  sim::RunningStats before, after;
  std::uint64_t touched = 0, total = 0;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const sim::Time now = sim::seconds(static_cast<double>(epoch));
    const bool attacking = epoch >= config.attack_start_epoch;

    sim::RunningStats untouched_qoe;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const SessionId s = members[i];
      const ArmId arm = engine.assignment(s);
      double q = config.model.true_qoe(arm, 0.0, rng);
      ++total;
      const bool victim = i < victims;
      if (attacking && victim && arm == good) {
        // Real packet drops, really worse playback — the report below is
        // completely honest.
        q = std::max(kQoeMin, q - config.degradation);
        ++touched;
      }
      if (!victim) untouched_qoe.add(q);
      engine.report({s, arm, q, now});
    }

    result.untouched_qoe.record(now, untouched_qoe.mean());
    if (epoch + 10 >= config.attack_start_epoch &&
        epoch < config.attack_start_epoch) {
      before.add(untouched_qoe.mean());
    }
    if (epoch >= config.epochs - 30) {
      after.add(untouched_qoe.mean());
      if (engine.group_best_arm(group) == bad) {
        result.flipped_fraction += 1.0 / 30.0;
      }
    }
    engine.end_epoch();
  }

  result.untouched_before = before.mean();
  result.untouched_after = after.mean();
  result.touched_share =
      total ? static_cast<double>(touched) / static_cast<double>(total) : 0.0;
  return result;
}

CdnConfig default_cdn_attack_config() {
  CdnConfig cfg;
  cfg.model.arm_base = {4.5, 4.0};          // site 0 better and bigger
  cfg.model.arm_capacity = {400.0, 200.0};  // site 1 cannot hold everyone
  return cfg;
}

CdnResult run_cdn_experiment(const CdnConfig& config) {
  sim::Rng rng{config.seed};
  PytheasEngine engine{config.engine};

  const SessionFeatures group{
      .asn = 64501, .location = "nyc", .content = "live"};
  SessionId next = 1;
  std::vector<SessionId> sessions;
  for (std::size_t i = 0; i < config.sessions; ++i) {
    sessions.push_back(next);
    engine.join(next++, group);
  }

  CdnResult result;
  sim::RunningStats before, after;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const sim::Time now = sim::seconds(static_cast<double>(epoch));
    const bool attacking = epoch >= config.attack_start_epoch;

    // Count load per site for this epoch's assignments.
    std::vector<double> load(config.engine.arms, 0.0);
    for (SessionId s : sessions) load[engine.assignment(s)] += 1.0;

    sim::RunningStats epoch_qoe;
    for (SessionId s : sessions) {
      const ArmId arm = engine.assignment(s);
      double q = config.model.true_qoe(arm, load[arm], rng);
      // The MitM throttles site-0 traffic: users *really* measure worse
      // QoE there — the reports are honest, the network lies.
      if (attacking && arm == 0) {
        q = std::max(kQoeMin, q - config.throttle_penalty);
      }
      epoch_qoe.add(q);
      engine.report({s, arm, q, now});
    }

    result.site0_load.record(now, load[0]);
    result.site1_load.record(now, load[1]);
    result.mean_qoe.record(now, epoch_qoe.mean());
    if (config.engine.arms > 1 && config.model.arm_capacity.size() > 1 &&
        config.model.arm_capacity[1] > 0.0) {
      result.site1_peak_overload = std::max(
          result.site1_peak_overload, load[1] / config.model.arm_capacity[1]);
    }
    if (epoch + 10 >= config.attack_start_epoch &&
        epoch < config.attack_start_epoch) {
      before.add(epoch_qoe.mean());
    }
    if (epoch >= config.epochs - 30) after.add(epoch_qoe.mean());

    engine.end_epoch();
  }

  result.qoe_before = before.mean();
  result.qoe_after = after.mean();
  return result;
}

}  // namespace intox::pytheas
