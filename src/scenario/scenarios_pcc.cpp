// PCC scenarios (§4.2): single-flow rate oscillation under the
// utility-equalizing MitM, and the fleet-scale aggregate-fluctuation
// sweep. Ported verbatim from the pre-registry bench binaries.
#include <utility>
#include <vector>

#include "pcc/experiment.hpp"
#include "scenario/registry.hpp"

namespace intox::scenario {
namespace {

// ---------------------------------------------------------- oscillation

void declare_oscillation(KnobSet& knobs) {
  const pcc::PccExperimentConfig def = pcc::default_oscillation_config();
  knobs.declare_double("duration_s", sim::to_seconds(def.duration),
                       "per-experiment simulated duration", 1.0, 10000.0);
  knobs.declare_u64("seed", def.seed, "shared experiment seed");
}

void run_oscillation(Ctx& ctx) {
  auto base = [&ctx] {
    pcc::PccExperimentConfig cfg = pcc::default_oscillation_config();
    cfg.duration = sim::seconds(ctx.knobs.d("duration_s"));
    cfg.seed = ctx.knobs.u("seed");
    return cfg;
  };
  auto print = [&ctx](const char* label,
                      const pcc::PccExperimentResult& r) {
    ctx.out.row("%-22s %9.2f %8.2f%% %8.2f%% %8llu %8llu %9.2f%%", label,
                r.mean_rate_bps / 1e6, r.rate_cv * 100.0,
                r.osc_amplitude * 100.0,
                static_cast<unsigned long long>(r.inconclusive),
                static_cast<unsigned long long>(r.decisions),
                r.attacker_observed
                    ? 100.0 * static_cast<double>(r.attacker_dropped) /
                          static_cast<double>(r.attacker_observed)
                    : 0.0);
  };

  ctx.out.header("PCC-OSC",
                 "PCC rate oscillation under a utility-equalizing MitM");
  ctx.out.row("%-22s %9s %9s %9s %8s %8s %10s", "scenario", "rate[Mb]",
              "rate-cv", "amp", "inconcl", "decide", "drop-share");

  std::vector<std::pair<const char*, pcc::PccExperimentConfig>> scenarios;
  scenarios.emplace_back("pcc clean", base());
  {
    auto atk = base();
    atk.attack = true;
    scenarios.emplace_back("pcc + mitm(omnisc.)", atk);
    atk.mitm.mode = pcc::PccMitmConfig::Mode::kShaper;
    scenarios.emplace_back("pcc + mitm(shaper)", atk);
  }
  {
    auto reno = base();
    reno.kind = pcc::SenderKind::kReno;
    scenarios.emplace_back("reno clean", reno);
    reno.attack = true;
    scenarios.emplace_back("reno + mitm(omnisc.)", reno);
  }

  const auto results = ctx.runner.map(scenarios.size(), [&](std::size_t i) {
    return pcc::run_pcc_experiment(scenarios[i].second);
  });
  ctx.perf("PCC-OSC");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    print(scenarios[i].first, results[i]);
  }

  const pcc::PccExperimentResult& clean = results[0];
  const pcc::PccExperimentResult& omniscient = results[1];

  ctx.out.claim(clean.rate_cv < 0.08,
                "clean PCC converges (rate CV < 8% in steady state)");
  ctx.out.claim(omniscient.rate_cv > 1.3 * clean.rate_cv &&
                    omniscient.osc_amplitude >= 0.05,
                "MitM-attacked PCC fluctuates at the +-5% scale without "
                "converging (paper's headline)");
  ctx.out.claim(omniscient.mean_rate_bps < 0.85 * clean.mean_rate_bps,
                "attacked flow is pinned below its fair rate");
  ctx.out.claim(
      static_cast<double>(omniscient.attacker_dropped) <
          0.05 * static_cast<double>(omniscient.attacker_observed),
      "attacker tampers with <5% of packets");
  ctx.out.claim(omniscient.inconclusive > clean.decisions / 2,
                "experiments are driven inconclusive (epsilon escalates)");

  // Ablation: epsilon_max — the oscillation amplitude the attacker gets
  // for free is exactly PCC's own experiment range.
  ctx.out.row();
  ctx.out.row("ablation: epsilon_max under attack");
  const std::vector<double> emaxes{0.02, 0.05, 0.10};
  const auto ablations = ctx.runner.map(emaxes.size(), [&](std::size_t i) {
    auto cfg = base();
    cfg.attack = true;
    cfg.pcc.epsilon_max = emaxes[i];
    return pcc::run_pcc_experiment(cfg);
  });
  ctx.perf("PCC-OSC-ABLATION");
  for (std::size_t i = 0; i < emaxes.size(); ++i) {
    ctx.out.row("  eps_max %.2f -> rate-cv %5.2f%%, amp %5.2f%%", emaxes[i],
                ablations[i].rate_cv * 100.0,
                ablations[i].osc_amplitude * 100.0);
  }
  ctx.out.note("epsilon_max bounds the attacker-induced oscillation — the "
               "paper's own countermeasure suggestion (cf. "
               "defense.guards).");
}

// ---------------------------------------------------------------- fleet

void declare_fleet(KnobSet& knobs) {
  const pcc::PccExperimentConfig def = pcc::default_fleet_config(1, false);
  knobs.declare_double("duration_s", sim::to_seconds(def.duration),
                       "per-experiment simulated duration", 1.0, 10000.0);
  knobs.declare_u64("seed", def.seed, "shared experiment seed");
}

void run_fleet(Ctx& ctx) {
  auto fleet_config = [&ctx](std::size_t flows, bool attack) {
    pcc::PccExperimentConfig cfg = pcc::default_fleet_config(flows, attack);
    cfg.duration = sim::seconds(ctx.knobs.d("duration_s"));
    cfg.seed = ctx.knobs.u("seed");
    return cfg;
  };

  ctx.out.header("PCC-FLEET",
                 "aggregate traffic fluctuation at a victim destination");

  const std::vector<std::size_t> fleet_sizes{1, 4, 16, 48};
  // Trials 2k / 2k+1 are fleet k clean / attacked.
  const auto results =
      ctx.runner.map(2 * fleet_sizes.size(), [&](std::size_t i) {
        return pcc::run_pcc_experiment(
            fleet_config(fleet_sizes[i / 2], i % 2 == 1));
      });
  ctx.perf("PCC-FLEET");

  ctx.out.row("%6s | %14s %14s | %14s %14s", "flows", "clean agg[Mb]",
              "clean agg-cv", "attacked[Mb]", "attacked-cv");
  bool cv_grows = true;
  double last_clean_cv = 0.0, last_attacked_cv = 0.0;
  for (std::size_t k = 0; k < fleet_sizes.size(); ++k) {
    const std::size_t flows = fleet_sizes[k];
    const pcc::PccExperimentResult& clean = results[2 * k];
    const pcc::PccExperimentResult& attacked = results[2 * k + 1];
    const sim::Duration duration = fleet_config(flows, false).duration;

    sim::RunningStats clean_late, attacked_late;
    for (const auto& [t, v] : clean.delivered_bps.points()) {
      if (t >= duration * 2 / 3) clean_late.add(v);
    }
    for (const auto& [t, v] : attacked.delivered_bps.points()) {
      if (t >= duration * 2 / 3) attacked_late.add(v);
    }
    ctx.out.row("%6zu | %14.1f %13.2f%% | %14.1f %13.2f%%", flows,
                clean_late.mean() / 1e6, clean.delivered_cv * 100.0,
                attacked_late.mean() / 1e6, attacked.delivered_cv * 100.0);
    if (flows >= 16) cv_grows &= attacked.delivered_cv > clean.delivered_cv;
    last_clean_cv = clean.delivered_cv;
    last_attacked_cv = attacked.delivered_cv;
  }

  ctx.out.claim(cv_grows,
                "at fleet scale the attacked aggregate fluctuates more "
                "than the clean one");
  ctx.out.claim(last_attacked_cv > 1.2 * last_clean_cv,
                "destination-side arrival variability grows by >20% under "
                "attack at 48 flows");
  ctx.out.note("statistical multiplexing normally smooths aggregates; the "
               "synchronized per-flow oscillations re-introduce variance "
               "at the destination.");
}

}  // namespace

const Scenario kPccOscillation{"pcc.oscillation", "PCC-OSC",
                               "PCC rate oscillation under a "
                               "utility-equalizing MitM",
                               declare_oscillation, run_oscillation};

const Scenario kPccFleet{"pcc.fleet", "PCC-FLEET",
                         "aggregate traffic fluctuation at a victim "
                         "destination",
                         declare_fleet, run_fleet};

}  // namespace intox::scenario
