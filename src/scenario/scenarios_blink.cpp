// Blink scenarios (§3.1): the Fig. 2 reproduction, the t_R sensitivity
// sweep, and the end-to-end hijack over the packet-level switch
// pipeline. Ported verbatim from the pre-registry bench binaries; the
// console output is byte-identical at default knobs.
#include <chrono>
#include <cmath>
#include <vector>

#include "blink/attacker.hpp"
#include "blink/cell_process.hpp"
#include "dataplane/switch.hpp"
#include "scenario/registry.hpp"
#include "sim/network.hpp"

namespace intox::scenario {
namespace {

// ---------------------------------------------------------------- fig2

void declare_fig2(KnobSet& knobs) {
  knobs.declare_u64("runs", 12,
                    "packet-level simulation runs (the figure used 50)", 1,
                    100000);
  knobs.declare_u64("bots", 105,
                    "malicious flows against the 2000-flow trace "
                    "(q_m = bots/2000)",
                    1, 1999);
}

void run_fig2(Ctx& ctx) {
  const std::size_t runs = ctx.knobs.u("runs");
  const std::size_t bots = ctx.knobs.u("bots");
  ctx.out.header("FIG2", "malicious flows in Blink's sample over time");
  const double tr = 8.37;
  const double qm = static_cast<double>(bots) / 2000.0;
  const std::size_t n = 64, majority = 32;

  // Packet-level simulations (2000 legit + `bots` malicious flows each),
  // sharded across the runner. Each trial is seeded by its index alone
  // and the aggregates are folded in trial order below, so the output
  // does not depend on scheduling.
  const auto trials = ctx.runner.map(runs, [bots](std::size_t r) {
    blink::Fig2Config cfg = blink::default_fig2_config(r);
    cfg.malicious_flows = bots;
    return blink::run_fig2_experiment(cfg);
  });
  ctx.perf("FIG2");

  sim::SeriesStats sampled{0, sim::seconds(500), sim::seconds(25)};
  sim::RunningStats majority_times, measured_tr;
  std::size_t reroutes = 0;
  for (const blink::Fig2Result& result : trials) {
    sampled.add(result.malicious_sampled);
    if (result.time_to_majority_seconds >= 0) {
      majority_times.add(result.time_to_majority_seconds);
    }
    measured_tr.add(result.measured_tr_seconds);
    reroutes += !result.reroutes.empty();
  }

  ctx.out.row("%6s  %8s  %6s  %6s  | packet-level sim (mean of %zu runs, "
              "min, max)",
              "t[s]", "calc-avg", "p5", "p95", runs);
  for (std::size_t i = 0; i < sampled.points(); ++i) {
    const int t = static_cast<int>(i) * 25;
    const double p = blink::cell_malicious_probability(qm, t, tr);
    const double mean = static_cast<double>(n) * p;
    const auto p5 = blink::binomial_quantile(n, p, 0.05);
    const auto p95 = blink::binomial_quantile(n, p, 0.95);
    const sim::RunningStats& at_t = sampled.at(i);
    ctx.out.row("%6d  %8.1f  %6zu  %6zu  | %8.1f  %6.0f  %6.0f", t, mean, p5,
                p95, at_t.mean(), at_t.min(), at_t.max());
  }

  const double t_mean32 = blink::time_to_expected_count(n, qm, tr, 32.0);
  ctx.out.row();
  ctx.out.row("closed-form mean crosses %zu at           %.0f s", majority,
              t_mean32);
  ctx.out.row(
      "packet-level majority reached at (mean)  %.0f s  [paper: 172 s]",
      majority_times.mean());
  ctx.out.row(
      "measured sampled-residency t_R           %.2f s  [target 8.37 s]",
      measured_tr.mean());
  ctx.out.row("runs reaching majority                   %zu/%zu",
              majority_times.count(), runs);
  ctx.out.row("runs triggering a bogus reroute          %zu/%zu", reroutes,
              runs);

  ctx.out.claim(majority_times.count() == runs,
                "attack reaches a malicious majority in every run");
  ctx.out.claim(majority_times.mean() > 100 && majority_times.mean() < 260,
                "time-to-majority lands in the paper's 100-260 s regime "
                "(~172 s)");
  ctx.out.claim(std::abs(measured_tr.mean() - 8.37) < 1.5,
                "synthetic trace reproduces the target t_R = 8.37 s");
  ctx.out.claim(reroutes == runs, "every run ends with Blink hijacked");
  ctx.out.note("closed form slightly leads the packet-level runs: only ~52 "
               "of 64 cells are reachable by 105 hashed flows (capture "
               "ceiling).");
}

// ------------------------------------------------------------ tr-sweep

void declare_tr_sweep(KnobSet& knobs) {
  knobs.declare_u64("cells", 64, "Blink sample size n (majority = n/2)", 2,
                    4096);
  knobs.declare_double("budget_s", 510.0,
                       "attacker time budget t_B = sample reset period",
                       1.0, 100000.0);
  knobs.declare_u64("mc_runs", 400, "Monte-Carlo trials per t_R column", 1,
                    1000000);
  knobs.declare_u64("mc_seed", 7, "Monte-Carlo base seed");
}

void run_tr_sweep(Ctx& ctx) {
  ctx.out.header("BLINK-TR",
                 "attack feasibility vs sampled-flow residency t_R");
  const std::size_t n = ctx.knobs.u("cells");
  const std::size_t majority = n / 2;
  const double budget = ctx.knobs.d("budget_s");
  const std::size_t mc_runs = ctx.knobs.u("mc_runs");

  // Part 1: minimum q_m for 95%-confident majority within one reset.
  ctx.out.row("%8s  %12s  %16s", "t_R[s]", "min q_m",
              "botnet vs 2000 flows");
  double prev_qm = 0.0;
  bool monotone = true;
  for (double tr : {2.0, 5.0, 8.37, 10.0, 15.0, 20.0, 30.0, 40.0}) {
    const double qm = blink::min_qm_for_success(n, budget, tr, majority,
                                                0.95);
    const auto bots = static_cast<std::size_t>(
        std::ceil(2000.0 * qm / (1.0 - qm)));
    ctx.out.row("%8.2f  %11.4f%%  %13zu hosts", tr, qm * 100.0, bots);
    monotone &= qm > prev_qm;
    prev_qm = qm;
  }
  ctx.out.claim(monotone, "longer t_R requires strictly higher q_m");

  const double qm_median =
      blink::min_qm_for_success(n, budget, 5.0, majority, 0.95);
  const double qm_mean =
      blink::min_qm_for_success(n, budget, 10.0, majority, 0.95);
  ctx.out.claim(qm_median < 0.05 && qm_mean < 0.08,
                "at the CAIDA-like t_R of 5-10 s, <8% malicious traffic "
                "suffices (paper: 5.25% at 8.37 s)");

  // Part 2: cross-check closed form vs Monte-Carlo at q_m = 5.25%.
  ctx.out.row();
  ctx.out.row("%8s  %14s  %14s", "t_R[s]", "theory P[win]", "monte-carlo");
  bool agree = true;
  sim::Rng rng{ctx.knobs.u("mc_seed")};
  sim::RunReport mc_perf;
  for (double tr : {5.0, 8.37, 15.0, 30.0}) {
    const double theory =
        blink::attack_success_probability(n, 0.0525, budget, tr, majority);
    blink::CellProcessConfig cfg;
    cfg.cells = n;
    cfg.horizon_seconds = budget;
    cfg.tr_seconds = tr;
    sim::Rng sub = rng.fork(static_cast<std::uint64_t>(tr * 100));
    const double mc = blink::empirical_success_rate(cfg, majority, mc_runs,
                                                    sub, ctx.runner);
    mc_perf.trials += ctx.runner.last_report().trials;
    mc_perf.threads = ctx.runner.last_report().threads;
    mc_perf.wall_seconds += ctx.runner.last_report().wall_seconds;
    ctx.out.row("%8.2f  %13.3f  %13.3f", tr, theory, mc);
    agree &= std::abs(theory - mc) < 0.08;
  }
  ctx.perf("BLINK-TR-MC", mc_perf);
  ctx.out.claim(agree, "Monte-Carlo matches the closed form within 0.08");

  // Part 3: ablations of Blink's own parameters (DESIGN.md §6).
  ctx.out.row();
  ctx.out.row(
      "ablation: cells n (majority = n/2), t_R = 8.37 s, qm = 5.25%%");
  for (std::size_t cells : {16u, 32u, 64u, 128u, 256u}) {
    const double p = blink::attack_success_probability(cells, 0.0525, budget,
                                                       8.37, cells / 2);
    ctx.out.row("  n = %4zu   P[attack succeeds] = %.4f", cells, p);
  }
  ctx.out.note("larger samples narrow the binomial spread around the same "
               "mean: cell count barely defends");

  ctx.out.row("ablation: reset period t_B (attacker's time budget)");
  bool budget_helps = true;
  double prev = 1.0;
  for (double tb : {510.0, 255.0, 127.0, 60.0, 30.0}) {
    const double p =
        blink::attack_success_probability(n, 0.0525, tb, 8.37, majority);
    ctx.out.row("  t_B = %4.0f s   P[success] = %.4f", tb, p);
    budget_helps &= p <= prev + 1e-12;
    prev = p;
  }
  ctx.out.claim(budget_helps,
                "shorter reset periods shrink the attack window (defense "
                "lever, at the cost of re-learning the sample)");
}

// ----------------------------------------------------------------- e2e

void declare_e2e(KnobSet& knobs) {
  knobs.declare_u64("bots", 105, "malicious flows injected at the ingress",
                    0, 100000);
  knobs.declare_double("horizon_s", 300.0, "simulated horizon in seconds",
                       1.0, 100000.0);
  knobs.declare_u64("seed", 2024, "top-level experiment seed");
}

void run_e2e(Ctx& ctx) {
  ctx.out.header("BLINK-E2E", "traffic hijack via fake retransmissions");

  sim::Scheduler sched;
  sim::Network net{sched};
  sim::Rng rng{ctx.knobs.u("seed")};

  dataplane::CallbackNode source{"ingress", nullptr};
  dataplane::RoutedSwitch sw{"blink-switch", sched,
                             net::Ipv4Addr{192, 0, 2, 1}};
  dataplane::CallbackNode primary{"primary-nexthop", nullptr};
  dataplane::CallbackNode attacker_hop{"attacker-nexthop", nullptr};

  sim::LinkConfig fast;
  fast.rate_bps = 10e9;
  fast.prop_delay = sim::millis(1);
  net.connect(source, 0, sw, 0, fast);
  net.connect(sw, 1, primary, 0, fast);
  net.connect(sw, 2, attacker_hop, 0, fast);

  trafficgen::TraceConfig trace;  // 2000 flows, t_R = 8.37 s
  trace.horizon = sim::seconds(ctx.knobs.d("horizon_s"));
  sw.add_route(net::Prefix{net::Ipv4Addr{10, 0, 0, 0}, 8}, 1);

  blink::BlinkNode node{blink::BlinkConfig{}};
  node.monitor_prefix(trace.victim_prefix, /*primary=*/1, /*backup=*/2);
  sw.add_processor(&node);

  std::uint64_t legit_to_primary = 0, legit_to_attacker = 0;
  primary.set_handler([&](net::Packet p, int) {
    legit_to_primary += !blink::is_malicious_tag(p.flow_tag);
  });
  attacker_hop.set_handler([&](net::Packet p, int) {
    legit_to_attacker += !blink::is_malicious_tag(p.flow_tag);
  });

  std::uint64_t injected = 0;
  trafficgen::FlowPopulation pop{
      sched, rng.fork("drivers"), [&](net::Packet p) {
        ++injected;
        source.inject(0, std::move(p));
      }};
  {
    sim::Rng trng = rng.fork("trace");
    for (const auto& f : trafficgen::synthesize_trace(trace, trng)) {
      pop.add_legit(f);
    }
  }
  {
    sim::Rng brng = rng.fork("bots");
    trafficgen::MaliciousFlowDriver::Options opts;
    opts.send_period = trace.pkt_interval;
    for (const auto& f : trafficgen::synthesize_malicious_flows(
             trace, ctx.knobs.u("bots"), 0, brng,
             blink::kMaliciousTagBase)) {
      pop.add_malicious(f, opts);
    }
  }

  // Time the simulation span and record injected-packets/sec as a perf
  // sweep. Goes to stderr + the BENCH json only, never stdout, so the
  // scenario's stdout golden is unaffected.
  // intox-analyze: allow(determinism, perf timing only, never stdout)
  const auto wall_start = std::chrono::steady_clock::now();
  pop.start_all();
  sched.run_until(trace.horizon);
  pop.stop_all();
  const std::chrono::duration<double> wall =
      // intox-analyze: allow(determinism, perf timing only, never stdout)
      std::chrono::steady_clock::now() - wall_start;
  sim::RunReport perf;
  perf.trials = injected;
  perf.threads = 1;
  perf.wall_seconds = wall.count();
  ctx.perf("e2e_packets", perf);

  const auto& reroutes = node.reroutes();
  ctx.out.row("reroute events:        %zu", reroutes.size());
  if (!reroutes.empty()) {
    ctx.out.row("hijack at:             %.1f s (retransmitting cells: %zu)",
                sim::to_seconds(reroutes[0].when),
                reroutes[0].retransmitting_cells);
  }
  ctx.out.row("legit pkts to primary: %llu",
              static_cast<unsigned long long>(legit_to_primary));
  ctx.out.row("legit pkts hijacked:   %llu",
              static_cast<unsigned long long>(legit_to_attacker));
  const double hijacked_share =
      static_cast<double>(legit_to_attacker) /
      static_cast<double>(legit_to_primary + legit_to_attacker);
  ctx.out.row("hijacked share:        %.1f%% of legitimate traffic",
              hijacked_share * 100.0);

  ctx.out.claim(!reroutes.empty(),
                "fake retransmissions trigger a reroute");
  ctx.out.claim(legit_to_attacker > 0,
                "legitimate traffic flows through the attacker's next-hop");
  // Every legitimate packet after the reroute goes to the attacker, so
  // the share tracks the part of the horizon left after it.
  const double horizon_left =
      reroutes.empty() ? 0.0
                       : 1.0 - sim::to_seconds(reroutes[0].when) /
                                   sim::to_seconds(trace.horizon);
  ctx.out.claim(!reroutes.empty() &&
                    std::abs(hijacked_share - horizon_left) < 0.03,
                "legitimate traffic after the reroute is hijacked (share "
                "within 0.03 of the horizon left)");
  ctx.out.note("no TCP handshake was ever performed: malicious drivers "
               "emit raw duplicate segments only (cf. §3.1).");
}

}  // namespace

const Scenario kBlinkFig2{"blink.fig2", "FIG2",
                          "Fig. 2: malicious flows in Blink's sample over "
                          "time",
                          declare_fig2, run_fig2};

const Scenario kBlinkTrSweep{"blink.tr-sweep", "BLINK-TR",
                             "attack feasibility vs sampled-flow residency t_R",
                             declare_tr_sweep, run_tr_sweep};

const Scenario kBlinkE2e{"blink.e2e", "BLINK-E2E",
                         "traffic hijack via fake retransmissions, full "
                         "switch pipeline",
                         declare_e2e, run_e2e};

}  // namespace intox::scenario
