// Pytheas scenarios (§4.1): group QoE poisoning by lying clients (plus
// the UCB-discount / group-size / MitM ablations) and the CDN-site
// overload stampede. Ported verbatim from the pre-registry benches.
#include <utility>
#include <vector>

#include "pytheas/experiment.hpp"
#include "scenario/registry.hpp"

namespace intox::scenario {
namespace {

// --------------------------------------------------------------- poison

void declare_poison(KnobSet& knobs) {
  const pytheas::PoisonConfig def;
  knobs.declare_u64("legit", def.legit_sessions,
                    "honest sessions per group in the bots x amp grid", 1,
                    100000);
  knobs.declare_u64("epochs", def.epochs,
                    "decision epochs per experiment", 1, 100000);
}

void run_poison(Ctx& ctx) {
  const std::size_t legit = ctx.knobs.u("legit");
  const std::size_t epochs = ctx.knobs.u("epochs");
  ctx.out.header("PYTH-QOE", "group QoE poisoning by lying clients");

  std::vector<std::pair<std::size_t, std::size_t>> grid;  // (bots, amp)
  for (std::size_t bots : {0u, 10u, 20u, 40u, 60u}) {
    for (std::size_t amp : {1u, 3u, 12u}) {
      if (bots == 0 && amp != 1) continue;
      grid.emplace_back(bots, amp);
    }
  }
  grid.emplace_back(12, 12);  // the amplification-substitutes claim

  const auto grid_results =
      ctx.runner.map(grid.size(), [&](std::size_t i) {
        pytheas::PoisonConfig cfg;
        cfg.legit_sessions = legit;
        cfg.epochs = epochs;
        cfg.bot_sessions = grid[i].first;
        cfg.bot_amplification = grid[i].second;
        return pytheas::run_poisoning_experiment(cfg);
      });
  ctx.perf("PYTH-QOE-GRID");

  ctx.out.row("%6s %6s %8s | %10s %10s %8s", "bots", "amp", "rep-share",
              "qoe-before", "qoe-after", "flipped");
  double qoe_drop_at_40 = 0.0;
  double flipped_at_12_amp12 = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto [bots, amp] = grid[i];
    const pytheas::PoisonResult& r = grid_results[i];
    if (bots == 12 && amp == 12) {
      // Off-grid probe point: feeds the claim below, not the table.
      flipped_at_12_amp12 = r.flipped_fraction;
      continue;
    }
    const double share = static_cast<double>(bots * amp) /
                         static_cast<double>(bots * amp + legit);
    ctx.out.row("%6zu %6zu %7.1f%% | %10.2f %10.2f %7.0f%%", bots, amp,
                share * 100.0, r.mean_qoe_before, r.mean_qoe_after,
                r.flipped_fraction * 100.0);
    if (bots == 40 && amp == 3) {
      qoe_drop_at_40 = r.mean_qoe_before - r.mean_qoe_after;
    }
  }

  ctx.out.claim(qoe_drop_at_40 > 1.0,
                "17% lying clients (3x reports) cost the whole group >1.0 "
                "QoE");
  ctx.out.claim(flipped_at_12_amp12 > 0.8,
                "amplification substitutes for bots: 5.7% of clients with "
                "12x reports still flip the group");

  // Ablation: UCB discount factor (how fast honest history decays).
  ctx.out.row();
  ctx.out.row("ablation: UCB discount (bots=40, amp=3)");
  const std::vector<double> discounts{0.90, 0.98, 0.999};
  const auto discount_results =
      ctx.runner.map(discounts.size(), [&](std::size_t i) {
        pytheas::PoisonConfig cfg;
        cfg.bot_sessions = 40;
        cfg.engine.ucb.discount = discounts[i];
        return pytheas::run_poisoning_experiment(cfg);
      });
  ctx.perf("PYTH-QOE-DISCOUNT");
  for (std::size_t i = 0; i < discounts.size(); ++i) {
    ctx.out.row("  discount %.3f -> qoe-after %.2f, flipped %3.0f%%",
                discounts[i], discount_results[i].mean_qoe_after,
                discount_results[i].flipped_fraction * 100.0);
  }
  ctx.out.note("slower forgetting (discount -> 1) makes poisoning slower "
               "but also makes the system sluggish to genuine QoE "
               "shifts.");

  // Ablation: group size at a fixed bot *count* (is the damage about
  // fractions or absolutes?).
  ctx.out.row("ablation: group size with a fixed 40-bot botnet");
  const std::vector<std::size_t> group_sizes{100, 200, 400, 800};
  const auto size_results =
      ctx.runner.map(group_sizes.size(), [&](std::size_t i) {
        pytheas::PoisonConfig cfg;
        cfg.legit_sessions = group_sizes[i];
        cfg.bot_sessions = 40;
        return pytheas::run_poisoning_experiment(cfg);
      });
  ctx.perf("PYTH-QOE-GROUPSIZE");
  for (std::size_t i = 0; i < group_sizes.size(); ++i) {
    ctx.out.row("  %4zu legit -> qoe-after %.2f, flipped %3.0f%%",
                group_sizes[i], size_results[i].mean_qoe_after,
                size_results[i].flipped_fraction * 100.0);
  }
  ctx.out.note("bigger groups dilute a fixed botnet — but group "
               "membership is public (§4.1), so attackers simply target "
               "smaller groups.");

  // §4.1 MitM variant: no lying at all — the attacker genuinely degrades
  // a subset of members' traffic and the group decision does the rest.
  ctx.out.row();
  ctx.out.row(
      "MitM variant (honest reports, real drops on a member subset):");
  ctx.out.row("%10s | %12s %12s %8s %10s", "victims", "qoe-before",
              "qoe-after", "flipped", "touched");
  const std::vector<double> victim_fractions{0.1, 0.3, 0.45, 0.6};
  const auto mitm_results =
      ctx.runner.map(victim_fractions.size(), [&](std::size_t i) {
        pytheas::MitmQoeConfig mcfg;
        mcfg.victim_fraction = victim_fractions[i];
        return pytheas::run_mitm_qoe_experiment(mcfg);
      });
  ctx.perf("PYTH-QOE-MITM");
  double collateral = 0.0;
  for (std::size_t i = 0; i < victim_fractions.size(); ++i) {
    const double f = victim_fractions[i];
    const pytheas::MitmQoeResult& r = mitm_results[i];
    ctx.out.row("%9.0f%% | %12.2f %12.2f %7.0f%% %9.1f%%", f * 100.0,
                r.untouched_before, r.untouched_after,
                r.flipped_fraction * 100.0, r.touched_share * 100.0);
    if (f == 0.45) collateral = r.untouched_before - r.untouched_after;
  }
  ctx.out.claim(collateral > 1.0,
                "members whose traffic was never touched lose >1.0 QoE — "
                "the group decision is the damage amplifier");
}

// ------------------------------------------------------------------ cdn

void declare_cdn(KnobSet& knobs) {
  const pytheas::CdnConfig def = pytheas::default_cdn_attack_config();
  knobs.declare_u64("sessions", def.sessions, "clients in the group", 1,
                    100000);
  knobs.declare_u64("attack_start", def.attack_start_epoch,
                    "epoch at which the MitM starts throttling site 0", 0,
                    100000);
  knobs.declare_double("throttle", def.throttle_penalty,
                       "QoE penalty the MitM inflicts on site-0 traffic",
                       0.0, 100.0);
}

void run_cdn(Ctx& ctx) {
  auto scenario = [&ctx] {
    pytheas::CdnConfig cfg = pytheas::default_cdn_attack_config();
    cfg.sessions = ctx.knobs.u("sessions");
    cfg.attack_start_epoch = ctx.knobs.u("attack_start");
    cfg.throttle_penalty = ctx.knobs.d("throttle");
    return cfg;
  };

  ctx.out.header("PYTH-CDN", "CDN-site overload via MitM throttling");

  auto clean_cfg = scenario();
  clean_cfg.attack_start_epoch = clean_cfg.epochs + 1;
  const auto clean = pytheas::run_cdn_experiment(clean_cfg);
  const auto attacked = pytheas::run_cdn_experiment(scenario());

  ctx.out.row("%18s  %12s  %12s", "", "no attack", "throttled");
  ctx.out.row("%18s  %12.2f  %12.2f", "final site-0 load",
              clean.site0_load.points().back().second,
              attacked.site0_load.points().back().second);
  ctx.out.row("%18s  %12.2f  %12.2f", "final site-1 load",
              clean.site1_load.points().back().second,
              attacked.site1_load.points().back().second);
  ctx.out.row("%18s  %12.2f  %12.2f", "site-1 peak load/cap",
              clean.site1_peak_overload, attacked.site1_peak_overload);
  ctx.out.row("%18s  %12.2f  %12.2f", "mean QoE (late)", clean.qoe_after,
              attacked.qoe_after);

  ctx.out.row();
  ctx.out.row(
      "site loads over time (attacked run; attack starts at epoch 50):");
  ctx.out.row("%8s  %8s  %8s  %8s", "epoch", "site0", "site1", "QoE");
  for (int e = 0; e <= 140; e += 20) {
    ctx.out.row("%8d  %8.0f  %8.0f  %8.2f", e,
                attacked.site0_load.at(sim::seconds(e)),
                attacked.site1_load.at(sim::seconds(e)),
                attacked.mean_qoe.at(sim::seconds(e)));
  }

  ctx.out.claim(clean.site1_peak_overload < 1.0,
                "without the attacker, the small site is never overloaded");
  ctx.out.claim(attacked.site1_peak_overload > 1.2,
                "throttling the big site stampedes the group onto the "
                "small one, overloading it past capacity");
  ctx.out.claim(attacked.qoe_after < clean.qoe_after - 0.15,
                "every client's QoE degrades even though site 1 was never "
                "touched by the attacker");
  ctx.out.note("the attacker throttles only site-0 traffic; the overload "
               "at site 1 is manufactured entirely by Pytheas's group "
               "decision.");
}

}  // namespace

const Scenario kPytheasPoison{"pytheas.poison", "PYTH-QOE",
                              "group QoE poisoning by lying clients",
                              declare_poison, run_poison};

const Scenario kPytheasCdn{"pytheas.cdn", "PYTH-CDN",
                           "CDN-site overload via MitM throttling",
                           declare_cdn, run_cdn};

}  // namespace intox::scenario
