// Defense scenario (§5): reruns each case-study attack with the
// corresponding supervisor guard enabled, and sweeps the guards'
// thresholds to expose the detection / false-positive trade-off. Ported
// verbatim from the pre-registry bench binary.
#include <cstdint>
#include <memory>

#include "blink/attacker.hpp"
#include "pcc/attacker.hpp"
#include "pcc/receiver.hpp"
#include "pytheas/experiment.hpp"
#include "scenario/registry.hpp"
#include "supervisor/blink_guard.hpp"
#include "supervisor/pcc_guard.hpp"
#include "supervisor/pytheas_guard.hpp"

namespace intox::scenario {
namespace {

// ---- Blink -----------------------------------------------------------

struct BlinkRun {
  std::size_t reroutes = 0;
  std::size_t vetoed = 0;
  double first_reroute_s = -1.0;
};

BlinkRun run_blink(bool attack, bool genuine_failure,
                   supervisor::BlinkRtoGuard* guard, std::uint64_t seed) {
  sim::Scheduler sched;
  sim::Rng rng{seed};
  trafficgen::TraceConfig trace;
  trace.active_flows = attack ? 2000 : 800;
  trace.horizon = sim::seconds(attack ? 240 : 90);

  blink::BlinkNode node{blink::BlinkConfig{}};
  node.monitor_prefix(trace.victim_prefix, 0, 1);
  if (guard) node.set_reroute_guard(guard->as_reroute_guard());

  auto sink = [&](net::Packet p) {
    dataplane::PipelineMetadata meta;
    node.process(p, meta, sched.now());
  };
  trafficgen::FlowPopulation pop{sched, rng.fork("drivers"), sink};
  {
    sim::Rng trng = rng.fork("trace");
    for (const auto& f : trafficgen::synthesize_trace(trace, trng)) {
      pop.add_legit(f);
    }
  }
  if (attack) {
    sim::Rng brng = rng.fork("bots");
    trafficgen::MaliciousFlowDriver::Options opts;
    opts.send_period = trace.pkt_interval;
    for (const auto& f : trafficgen::synthesize_malicious_flows(
             trace, 105, 0, brng, blink::kMaliciousTagBase)) {
      pop.add_malicious(f, opts);
    }
  }
  pop.start_all();
  if (genuine_failure) {
    sched.schedule_at(sim::seconds(60), [&] { pop.fail_all_legit(); });
  }
  sched.run_until(trace.horizon);
  pop.stop_all();

  BlinkRun out;
  out.reroutes = node.reroutes().size();
  out.vetoed = static_cast<std::size_t>(node.vetoed());
  if (!node.reroutes().empty()) {
    out.first_reroute_s = sim::to_seconds(node.reroutes()[0].when);
  }
  return out;
}

// ---- PCC -------------------------------------------------------------

struct PccRun {
  double rate_cv = 0.0;
  double amp = 0.0;
  bool detected = false;
};

PccRun run_pcc(bool attack, bool with_guard, std::uint64_t seed) {
  sim::Scheduler sched;
  pcc::PccConfig cfg;
  cfg.seed = seed;
  sim::LinkConfig fwd;
  fwd.rate_bps = 20e6;
  fwd.prop_delay = sim::millis(20);
  fwd.queue_limit_bytes = 64 * 1024;
  fwd.red_min_bytes = 8 * 1024;
  fwd.red_max_bytes = 64 * 1024;
  fwd.red_max_prob = 0.25;
  sim::LinkConfig rev;
  rev.rate_bps = 1e9;
  rev.prop_delay = sim::millis(20);

  pcc::PccSender* sp = nullptr;
  sim::Link reverse{sched, rev, [&](net::Packet a) {
                      sp->on_ack(static_cast<std::uint32_t>(a.flow_tag),
                                 sched.now());
                    }};
  pcc::PccReceiver recv{
      [&](net::Packet a) { reverse.transmit(std::move(a)); }};
  sim::Link bottleneck{sched, fwd,
                       [&](net::Packet d) { recv.on_data(d); }};
  net::FiveTuple t{net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{2, 2, 2, 2},
                   10000, 443, net::IpProto::kUdp};
  pcc::PccSender sender{sched, cfg, t, [&](net::Packet p) {
                          bottleneck.transmit(std::move(p));
                        }};
  sp = &sender;
  std::unique_ptr<supervisor::PccGuard> guard;
  if (with_guard) guard = std::make_unique<supervisor::PccGuard>(sender);
  std::unique_ptr<pcc::PccMitm> mitm;
  if (attack) {
    mitm = std::make_unique<pcc::PccMitm>(sched, pcc::PccMitmConfig{},
                                          &sender);
    mitm->attach(bottleneck);
  }
  sender.start();
  sched.run_until(sim::seconds(60));
  sender.stop();

  PccRun out;
  sim::RunningStats stats;
  for (const auto& [when, rate] : sender.rate_series().points()) {
    if (when >= sim::seconds(40)) stats.add(rate);
  }
  out.rate_cv = stats.mean() > 0 ? stats.stddev() / stats.mean() : 0.0;
  out.amp = stats.mean() > 0
                ? (stats.max() - stats.min()) / (2.0 * stats.mean())
                : 0.0;
  out.detected = guard && guard->detected();
  return out;
}

void declare_defense(KnobSet& knobs) {
  knobs.declare_u64("blink_seed", 21, "Blink guard attack-run seed");
  knobs.declare_u64("blink_failure_seed", 22,
                    "Blink guard genuine-failure-run seed");
  knobs.declare_u64("sweep_seed", 31,
                    "Blink veto-fraction sweep attack seed");
  knobs.declare_u64("sweep_failure_seed", 32,
                    "Blink veto-fraction sweep genuine-failure seed");
  knobs.declare_u64("pyth_bots", 40,
                    "lying sessions in the Pytheas guard experiments", 0,
                    100000);
  knobs.declare_u64("pcc_seed", 5, "PCC guard experiment seed");
}

void run_defense(Ctx& ctx) {
  ctx.out.header("DEFENSE",
                 "§5 supervisors vs the three case-study attacks");

  // ---- Blink RTO-plausibility guard ----------------------------------
  const std::uint64_t blink_seed = ctx.knobs.u("blink_seed");
  const std::uint64_t blink_failure_seed =
      ctx.knobs.u("blink_failure_seed");
  ctx.out.row("Blink (RTO-plausibility guard):");
  const auto blink_attack = run_blink(true, false, nullptr, blink_seed);
  supervisor::BlinkRtoGuard bguard1;
  const auto blink_defended = run_blink(true, false, &bguard1, blink_seed);
  supervisor::BlinkRtoGuard bguard2;
  const auto blink_failure =
      run_blink(false, true, &bguard2, blink_failure_seed);
  ctx.out.row("  attack, no guard : %zu reroute(s) at %.0f s (hijacked)",
              blink_attack.reroutes, blink_attack.first_reroute_s);
  ctx.out.row("  attack, guarded  : %zu reroute(s), %zu vetoed",
              blink_defended.reroutes, blink_defended.vetoed);
  ctx.out.row("  real failure     : %zu reroute(s) at %.1f s, %zu vetoed",
              blink_failure.reroutes, blink_failure.first_reroute_s,
              blink_failure.vetoed);
  ctx.out.claim(blink_attack.reroutes > 0,
                "undefended Blink gets hijacked");
  ctx.out.claim(blink_defended.reroutes == 0 && blink_defended.vetoed > 0,
                "guard vetoes the fake failure");
  ctx.out.claim(blink_failure.reroutes > 0 && blink_failure.vetoed == 0,
                "guard does not delay genuine fast reroute");

  // Threshold sweep: veto_fraction trade-off.
  ctx.out.row("  threshold sweep (veto when implausible fraction >= f):");
  for (double f : {0.10, 0.25, 0.50, 0.90}) {
    supervisor::BlinkGuardConfig gcfg;
    gcfg.veto_fraction = f;
    supervisor::BlinkRtoGuard ga{gcfg}, gb{gcfg};
    const auto atk =
        run_blink(true, false, &ga, ctx.knobs.u("sweep_seed"));
    const auto fail =
        run_blink(false, true, &gb, ctx.knobs.u("sweep_failure_seed"));
    ctx.out.row("    f=%.2f : attack blocked=%s, genuine reroute kept=%s",
                f, atk.reroutes == 0 ? "yes" : "NO",
                fail.reroutes > 0 ? "yes" : "NO");
  }

  // ---- Pytheas report filter ------------------------------------------
  ctx.out.row();
  ctx.out.row("Pytheas (rate-limit + outlier quarantine):");
  pytheas::PoisonConfig pcfg;
  pcfg.bot_sessions = ctx.knobs.u("pyth_bots");
  const auto pyth_attack = pytheas::run_poisoning_experiment(pcfg);
  auto pguard = std::make_shared<supervisor::PytheasGuard>();
  const auto pyth_defended =
      pytheas::run_poisoning_experiment(pcfg, pguard);
  pytheas::PoisonConfig clean_cfg;
  clean_cfg.bot_sessions = 0;
  auto pguard2 = std::make_shared<supervisor::PytheasGuard>();
  const auto pyth_clean_guarded =
      pytheas::run_poisoning_experiment(clean_cfg, pguard2);
  ctx.out.row("  attack, no guard : QoE %.2f -> %.2f, flipped %3.0f%%",
              pyth_attack.mean_qoe_before, pyth_attack.mean_qoe_after,
              pyth_attack.flipped_fraction * 100.0);
  ctx.out.row(
      "  attack, guarded  : QoE %.2f -> %.2f, flipped %3.0f%%, "
      "%llu reports filtered (%llu rate-limited, %llu outliers)",
      pyth_defended.mean_qoe_before, pyth_defended.mean_qoe_after,
      pyth_defended.flipped_fraction * 100.0,
      static_cast<unsigned long long>(pyth_defended.filtered_reports),
      static_cast<unsigned long long>(pguard->rate_limited()),
      static_cast<unsigned long long>(pguard->quarantined()));
  ctx.out.row("  clean, guarded   : QoE after %.2f (false-positive cost)",
              pyth_clean_guarded.mean_qoe_after);
  ctx.out.claim(pyth_attack.flipped_fraction > 0.5,
                "undefended group decision flips");
  ctx.out.claim(pyth_defended.flipped_fraction < 0.1,
                "guard keeps the group on the genuinely-best arm");
  ctx.out.claim(pyth_clean_guarded.mean_qoe_after >
                    pyth_attack.mean_qoe_before - 0.2,
                "guard costs clean operation essentially nothing");

  ctx.out.row(
      "  outlier-k sweep (quarantine when |q-med| > k*MAD + 0.3):");
  for (double k : {2.0, 4.0, 8.0, 16.0}) {
    supervisor::PytheasGuardConfig gcfg;
    gcfg.outlier_k = k;
    auto g = std::make_shared<supervisor::PytheasGuard>(gcfg);
    const auto r = pytheas::run_poisoning_experiment(pcfg, g);
    ctx.out.row("    k=%4.1f : flipped %3.0f%%, quarantined %llu", k,
                r.flipped_fraction * 100.0,
                static_cast<unsigned long long>(g->quarantined()));
  }

  // ---- PCC epsilon clamp ----------------------------------------------
  ctx.out.row();
  ctx.out.row("PCC (drop-pattern detector + epsilon clamp):");
  const std::uint64_t pcc_seed = ctx.knobs.u("pcc_seed");
  const auto pcc_clean = run_pcc(false, true, pcc_seed);
  const auto pcc_attack = run_pcc(true, false, pcc_seed);
  const auto pcc_defended = run_pcc(true, true, pcc_seed);
  ctx.out.row("  clean, guarded   : cv %5.2f%%, amp %5.2f%%, detected=%s",
              pcc_clean.rate_cv * 100.0, pcc_clean.amp * 100.0,
              pcc_clean.detected ? "YES (false positive)" : "no");
  ctx.out.row("  attack, no guard : cv %5.2f%%, amp %5.2f%%",
              pcc_attack.rate_cv * 100.0, pcc_attack.amp * 100.0);
  ctx.out.row("  attack, guarded  : cv %5.2f%%, amp %5.2f%%, detected=%s",
              pcc_defended.rate_cv * 100.0, pcc_defended.amp * 100.0,
              pcc_defended.detected ? "yes" : "NO");
  ctx.out.claim(!pcc_clean.detected,
                "no false alarm on the benign congested path");
  ctx.out.claim(pcc_defended.detected,
                "probe-targeted loss pattern detected");
  ctx.out.claim(pcc_defended.amp < pcc_attack.amp,
                "epsilon clamp shrinks the attacker-induced oscillation");
}

}  // namespace

const Scenario kDefenseGuards{"defense.guards", "DEFENSE",
                              "§5 supervisors vs the three case-study attacks",
                              declare_defense, run_defense};

}  // namespace intox::scenario
