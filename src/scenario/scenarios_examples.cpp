// The narrated example walk-throughs, registered as scenarios so the
// `intox` driver runs them. Each one prints free-form narration via
// Console::raw rather than the bench table conventions.
#include <cstdint>
#include <memory>
#include <string>

#include "blink/attacker.hpp"
#include "blink/blink_node.hpp"
#include "dataplane/switch.hpp"
#include "egress/attack.hpp"
#include "nethide/obfuscate.hpp"
#include "pcc/experiment.hpp"
#include "pytheas/experiment.hpp"
#include "scenario/registry.hpp"
#include "sim/network.hpp"
#include "supervisor/attack_synth.hpp"
#include "supervisor/pytheas_guard.hpp"
#include "trafficgen/driver.hpp"
#include "trafficgen/synth.hpp"

namespace intox::scenario {
namespace {

// ----------------------------------------------------------- quickstart

void declare_quickstart(KnobSet& knobs) {
  knobs.declare_u64("flows", 50, "legitimate flows in the workload", 1,
                    1000000);
  knobs.declare_u64("malicious", 5, "always-active malicious flows", 0,
                    1000000);
  knobs.declare_double("horizon_s", 30.0, "simulated horizon in seconds",
                       1.0, 100000.0);
  knobs.declare_u64("seed", 42, "workload seed");
}

Table run_quickstart(Ctx& ctx) {
  sim::Scheduler sched;
  sim::Network net{sched};

  // Topology: src host --- switch --- dst host.
  dataplane::CallbackNode src{"src", nullptr};
  dataplane::RoutedSwitch sw{"sw1", sched, net::Ipv4Addr{192, 0, 2, 1}};
  dataplane::CallbackNode dst{"dst", nullptr};
  net.connect(src, 0, sw, 0, sim::LinkConfig{});
  net.connect(sw, 1, dst, 0, sim::LinkConfig{});
  sw.add_route(net::Prefix{net::Ipv4Addr{10, 0, 0, 0}, 8}, 1);

  std::uint64_t delivered = 0;
  dst.set_handler([&](net::Packet, int) { ++delivered; });

  // Workload: legitimate flows plus always-active malicious flows, all
  // towards 10.0.0.0/8.
  const sim::Duration horizon = sim::seconds(ctx.knobs.d("horizon_s"));
  sim::Rng rng{ctx.knobs.u("seed")};
  trafficgen::TraceConfig cfg;
  cfg.active_flows = ctx.knobs.u("flows");
  cfg.mean_duration = sim::seconds(5);
  cfg.horizon = horizon;

  trafficgen::FlowPopulation pop{
      sched, rng.fork("drivers"),
      [&](net::Packet p) { src.inject(0, std::move(p)); }};
  sim::Rng trace_rng = rng.fork("trace");
  for (const auto& f : trafficgen::synthesize_trace(cfg, trace_rng)) {
    pop.add_legit(f);
  }
  sim::Rng bad_rng = rng.fork("malicious");
  for (const auto& f : trafficgen::synthesize_malicious_flows(
           cfg, ctx.knobs.u("malicious"), sim::seconds(1), bad_rng,
           1u << 20)) {
    pop.add_malicious(f);
  }

  pop.start_all();
  sched.run_until(horizon);
  pop.stop_all();

  ctx.out.raw("quickstart: simulated 30 s\n");
  ctx.out.raw("  flows:      %zu legit, %zu malicious\n", pop.legit_count(),
              pop.malicious_count());
  ctx.out.raw("  switch:     %llu forwarded, %llu no-route drops\n",
              static_cast<unsigned long long>(sw.counters().forwarded),
              static_cast<unsigned long long>(
                  sw.counters().dropped_no_route));
  ctx.out.raw("  delivered:  %llu packets\n",
              static_cast<unsigned long long>(delivered));
  ctx.out.raw("  events:     %llu processed\n",
              static_cast<unsigned long long>(sched.events_processed()));
  Table table;
  table.exit_code = delivered > 0 ? 0 : 1;
  return table;
}

INTOX_REGISTER_SCENARIO(kQuickstart,
                        {"quickstart", "QUICKSTART",
                         "smallest end-to-end use of the library",
                         declare_quickstart, run_quickstart});

// --------------------------------------------------------- blink.hijack

void declare_hijack(KnobSet& knobs) {
  knobs.declare_u64("bots", 105, "always-active fake flows the attacker "
                                 "opens",
                    1, 100000);
  knobs.declare_u64("trials", 8, "seeded Monte-Carlo trials", 1, 100000);
}

Table run_hijack(Ctx& ctx) {
  const std::size_t bots = ctx.knobs.u("bots");
  const std::size_t trials = ctx.knobs.u("trials");

  // Plan the attack with the closed-form model first, like an attacker
  // sizing a botnet rental.
  blink::BlinkConfig blink_cfg;
  const blink::AttackPlan plan =
      blink::plan_attack(blink_cfg, /*legit_flows=*/2000,
                         /*tr_seconds=*/8.37,
                         /*confidence=*/0.95);
  ctx.out.raw(
      "attack planner: >=%zu always-active flows give 95%% success\n"
      "  (q_m = %.2f%%, expected majority after %.0f s)\n\n",
      plan.malicious_flows, plan.qm * 100.0,
      plan.expected_majority_time_s);

  ctx.out.raw(
      "launching %zu malicious flows against 2000 legitimate ones "
      "(t_R = 8.37 s), %zu seeded trials...\n\n",
      bots, trials);
  const auto results = ctx.runner.map(trials, [bots](std::size_t trial) {
    blink::Fig2Config cfg;
    cfg.malicious_flows = bots;
    cfg.trace.horizon = sim::seconds(300);
    cfg.seed = 42 + trial;
    return blink::run_fig2_experiment(cfg);
  });

  // Narrate trial 0, the run the original walk-through showed.
  const blink::Fig2Result& result = results.front();
  ctx.out.raw("%8s  %22s\n", "time[s]", "malicious cells (of 64)");
  for (int t = 0; t <= 300; t += 30) {
    const int cells =
        static_cast<int>(result.malicious_sampled.at(sim::seconds(t)));
    ctx.out.raw("%8d  [%-32.*s] %d\n", t, cells / 2,
                "################################", cells);
  }

  if (result.time_to_majority_seconds >= 0) {
    ctx.out.raw("\nmajority captured after %.0f s\n",
                result.time_to_majority_seconds);
  } else {
    ctx.out.raw("\nmajority NOT captured within the horizon\n");
  }
  if (!result.reroutes.empty()) {
    ctx.out.raw(
        "Blink rerouted 10.0.0.0/8 at %.1f s — traffic now flows via "
        "the attacker's next-hop.\n",
        sim::to_seconds(result.reroutes.front().when));
  } else {
    ctx.out.raw("no reroute was triggered.\n");
  }

  // Fold the whole batch, in trial order, into the summary.
  sim::RunningStats majority_times;
  std::size_t hijacked = 0;
  for (const blink::Fig2Result& r : results) {
    if (r.time_to_majority_seconds >= 0) {
      majority_times.add(r.time_to_majority_seconds);
    }
    hijacked += !r.reroutes.empty();
  }
  ctx.out.raw(
      "\nacross %zu trials: %zu hijacks; majority after %.0f s mean "
      "(min %.0f, max %.0f)\n",
      trials, hijacked, majority_times.mean(), majority_times.min(),
      majority_times.max());
  ctx.perf("BLINK-HIJACK");
  return Table{};
}

INTOX_REGISTER_SCENARIO(kHijack,
                        {"blink.hijack", "BLINK-HIJACK",
                         "the §3.1 Blink attack, narrated",
                         declare_hijack, run_hijack});

// ------------------------------------------------------------- pcc.mitm

void declare_mitm(KnobSet& knobs) {
  knobs.declare_bool("attack", false, "enable the bottleneck MitM");
  knobs.declare_double("duration_s", 60.0,
                       "simulated duration in seconds", 1.0, 10000.0);
  knobs.declare_u64("seed", 7, "experiment seed");
}

Table run_mitm(Ctx& ctx) {
  const bool attack = ctx.knobs.b("attack");

  pcc::PccExperimentConfig cfg;
  cfg.duration = sim::seconds(ctx.knobs.d("duration_s"));
  cfg.attack = attack;
  cfg.seed = ctx.knobs.u("seed");
  ctx.out.raw("PCC over a 20 Mbps bottleneck, 40 ms RTT — %s\n\n",
              attack ? "MitM ATTACK ACTIVE (pass nothing to disable)"
                     : "clean run (pass --set attack=true to enable the MitM)");

  const auto r = pcc::run_pcc_experiment(cfg);

  ctx.out.raw("%8s  %10s\n", "time[s]", "rate[Mbps]");
  for (double t = 2; t <= 60; t += 2) {
    const double rate = r.rate.at(sim::seconds(t)) / 1e6;
    ctx.out.raw("%8.0f  %10.2f  |%-*s*\n", t, rate,
                static_cast<int>(rate * 1.5), "");
  }

  ctx.out.raw("\nsteady-state (last 20 s):\n");
  ctx.out.raw("  mean rate          %.2f Mbps\n", r.mean_rate_bps / 1e6);
  ctx.out.raw("  rate CV            %.2f%%\n", r.rate_cv * 100.0);
  ctx.out.raw("  oscillation amp.   +-%.2f%%\n", r.osc_amplitude * 100.0);
  ctx.out.raw("  experiments        %llu inconclusive / %llu decisions\n",
              static_cast<unsigned long long>(r.inconclusive),
              static_cast<unsigned long long>(r.decisions));
  if (attack) {
    ctx.out.raw("  attacker dropped   %llu of %llu packets (%.2f%%)\n",
                static_cast<unsigned long long>(r.attacker_dropped),
                static_cast<unsigned long long>(r.attacker_observed),
                100.0 * static_cast<double>(r.attacker_dropped) /
                    static_cast<double>(r.attacker_observed));
  }
  return Table{};
}

INTOX_REGISTER_SCENARIO(kMitm,
                        {"pcc.mitm", "PCC-MITM",
                         "the §4.2 PCC oscillation attack, narrated",
                         declare_mitm, run_mitm});

// ----------------------------------------------------- pytheas.streaming

void declare_streaming(KnobSet& knobs) {
  knobs.declare_bool("defend", false,
                     "install the §5 report-distribution guard");
  knobs.declare_u64("bots", 40, "lying sessions joining at epoch 30", 0,
                    100000);
}

Table run_streaming(Ctx& ctx) {
  const bool defend = ctx.knobs.b("defend");

  pytheas::PoisonConfig cfg;
  cfg.bot_sessions = ctx.knobs.u("bots");
  ctx.out.raw(
      "Pytheas group: 200 honest sessions + %zu bots (from epoch 30), "
      "%s\n\n",
      cfg.bot_sessions,
      defend ? "DEFENSE ON" : "defense off (--set defend=true)");

  std::shared_ptr<supervisor::PytheasGuard> guard;
  if (defend) guard = std::make_shared<supervisor::PytheasGuard>();
  const pytheas::PoisonResult r =
      pytheas::run_poisoning_experiment(cfg, guard);

  ctx.out.raw("%8s  %10s  %10s\n", "epoch", "group arm", "honest QoE");
  for (int e = 0; e < 120; e += 10) {
    const auto t = sim::seconds(static_cast<double>(e));
    ctx.out.raw("%8d  %10.0f  %10.2f  %s\n", e, r.chosen_arm.at(t),
                r.legit_qoe.at(t),
                e >= 30 ? (r.chosen_arm.at(t) > 0.5
                               ? "<- flipped to bad arm!"
                               : "(bots lying)")
                        : "");
  }

  ctx.out.raw("\nhonest-client QoE: %.2f before, %.2f after\n",
              r.mean_qoe_before, r.mean_qoe_after);
  ctx.out.raw(
      "group exploited the bad arm in %.0f%% of the final epochs\n",
      r.flipped_fraction * 100.0);
  if (guard) {
    ctx.out.raw(
        "guard filtered %llu reports (%llu rate-limited, %llu "
        "quarantined outliers)\n",
        static_cast<unsigned long long>(r.filtered_reports),
        static_cast<unsigned long long>(guard->rate_limited()),
        static_cast<unsigned long long>(guard->quarantined()));
  }
  return Table{};
}

INTOX_REGISTER_SCENARIO(kStreaming,
                        {"pytheas.streaming", "PYTH-STREAM",
                         "the §4.1 report-poisoning attack with the §5 "
                         "defense toggle",
                         declare_streaming, run_streaming});

// --------------------------------------------------- nethide.traceroute

void declare_traceroute(KnobSet& knobs) {
  knobs.declare_u64("rows", 3, "grid rows of the real topology", 2, 100);
  knobs.declare_u64("cols", 3, "grid columns of the real topology", 2,
                    100);
}

Table run_traceroute(Ctx& ctx) {
  const std::size_t rows = ctx.knobs.u("rows");
  const std::size_t cols = ctx.knobs.u("cols");
  const auto last = static_cast<nethide::NodeId>(rows * cols - 1);

  auto show_route = [&ctx](const char* label,
                           const nethide::Topology& topo,
                           const nethide::PathTable& table,
                           nethide::NodeId src, nethide::NodeId dst) {
    ctx.out.raw("  %-10s", label);
    for (const nethide::Hop& h :
         nethide::traceroute(topo, table, src, dst)) {
      ctx.out.raw(" %2d:%s", h.ttl, net::to_string(h.from).c_str());
    }
    ctx.out.raw("\n");
  };

  ctx.out.raw("== Part 1: one network, three presented topologies ==\n");
  const nethide::Topology topo = nethide::Topology::grid(rows, cols);
  const nethide::PathTable honest =
      nethide::PathTable::all_shortest_paths(topo);
  const auto defended =
      nethide::obfuscate(topo, nethide::ObfuscationConfig{});
  const auto faked = nethide::present_fake_topology(
      topo, nethide::Topology::ring(rows * cols));

  ctx.out.raw("traceroute 0 -> %u:\n", last);
  show_route("honest", topo, honest, 0, last);
  show_route("nethide", topo, defended.presented, 0, last);
  show_route("malicious", topo, faked.presented, 0, last);

  ctx.out.raw(
      "\nmetrics vs reality:      accuracy   utility   max-density\n");
  ctx.out.raw("  honest                 %8.3f  %8.3f  %8zu\n", 1.0, 1.0,
              nethide::max_flow_density(honest));
  ctx.out.raw("  nethide (defensive)    %8.3f  %8.3f  %8zu\n",
              defended.accuracy, defended.utility,
              defended.presented_max_density);
  ctx.out.raw("  malicious decoy        %8.3f  %8.3f  %8zu\n",
              faked.accuracy, faked.utility, faked.presented_max_density);

  ctx.out.raw("\n== Part 2: packet-level ICMP forgery ==\n");
  sim::Scheduler sched;
  sim::Network net{sched};
  dataplane::CallbackNode prober{"prober", nullptr};
  dataplane::RoutedSwitch r1{"r1", sched, net::Ipv4Addr{10, 255, 0, 1}};
  dataplane::RoutedSwitch r2{"r2", sched, net::Ipv4Addr{10, 255, 0, 2}};
  dataplane::CallbackNode target{"target", nullptr};
  net.connect(prober, 0, r1, 0, sim::LinkConfig{});
  net.connect(r1, 1, r2, 0, sim::LinkConfig{});
  net.connect(r2, 1, target, 0, sim::LinkConfig{});
  const net::Prefix dst_prefix{net::Ipv4Addr{198, 18, 0, 0}, 15};
  const net::Prefix back{net::Ipv4Addr{192, 0, 2, 0}, 24};
  r1.add_route(dst_prefix, 1);
  r1.add_route(back, 0);
  r2.add_route(dst_prefix, 1);
  r2.add_route(back, 0);

  // The "operator" rewrites r2's ICMP identity to a fantasy router.
  r2.set_reply_addr(net::Ipv4Addr{203, 0, 113, 77});

  prober.set_handler([&](net::Packet p, int) {
    if (const auto* icmp = p.icmp();
        icmp && icmp->type == net::IcmpType::kTimeExceeded) {
      ctx.out.raw("  reply from %s (ttl probe)\n",
                  net::to_string(p.src).c_str());
    }
  });

  for (std::uint8_t ttl = 1; ttl <= 2; ++ttl) {
    net::Packet probe;
    probe.src = net::Ipv4Addr{192, 0, 2, 9};
    probe.dst = net::Ipv4Addr{198, 18, 0, 1};
    probe.ttl = ttl;
    probe.l4 =
        net::UdpHeader{33434, static_cast<std::uint16_t>(33434 + ttl)};
    prober.inject(0, probe);
  }
  sched.run();
  ctx.out.raw(
      "  (the second hop is really 10.255.0.2 — the ICMP source was "
      "forged to 203.0.113.77)\n");
  return Table{};
}

INTOX_REGISTER_SCENARIO(kTraceroute,
                        {"nethide.traceroute", "NETHIDE-TR",
                         "§4.3: who controls ICMP controls the map",
                         declare_traceroute, run_traceroute});

// ------------------------------------------------------ attack.synthesis

void declare_synthesis(KnobSet& knobs) {
  knobs.declare_u64("iterations", 6000, "fuzzer iteration budget", 1,
                    10000000);
  knobs.declare_u64("seed", 7, "fuzzer seed");
}

Table run_synthesis(Ctx& ctx) {
  const net::Prefix kVictim{net::Ipv4Addr{10, 0, 0, 0}, 8};

  supervisor::SynthConfig cfg;
  cfg.flow_pool = 64;
  cfg.sequence_length = 1200;
  cfg.max_iterations = ctx.knobs.u("iterations");
  cfg.seed = ctx.knobs.u("seed");

  blink::BlinkConfig blink_cfg;
  blink_cfg.cells = 16;  // small instance: tractable demo

  ctx.out.raw(
      "searching for a packet sequence that makes Blink reroute "
      "%s...\n",
      net::to_string(kVictim).c_str());

  supervisor::AttackSynthesizer synth{cfg};
  const auto result = synth.search(
      [&]() -> std::unique_ptr<dataplane::PacketProcessor> {
        auto node = std::make_unique<blink::BlinkNode>(blink_cfg);
        node->monitor_prefix(kVictim, 0, 1);
        return node;
      },
      [kVictim](dataplane::PacketProcessor& p) {
        auto& node = static_cast<blink::BlinkNode&>(p);
        double s = static_cast<double>(
            node.selector(kVictim)->occupied_count());
        s += 50.0 * static_cast<double>(node.max_retransmitting());
        s += 1000.0 * static_cast<double>(node.reroutes().size());
        return s;
      },
      [](dataplane::PacketProcessor& p) {
        return !static_cast<blink::BlinkNode&>(p).reroutes().empty();
      });

  if (!result.found) {
    ctx.out.raw("no attack found in %zu iterations (best score %.0f)\n",
                result.iterations, result.best_score);
    Table table;
    table.exit_code = 1;
    return table;
  }

  ctx.out.raw("ATTACK FOUND after %zu candidate sequences.\n",
              result.iterations);

  // Characterize the witness: how §3.1-shaped is it?
  std::size_t repeats = 0, tight_gaps = 0;
  for (const auto& g : result.witness) {
    repeats += g.repeat_seq;
    tight_gaps += g.gap_ms <= 25;
  }
  ctx.out.raw(
      "witness: %zu packets, %.0f%% duplicate-seq, %.0f%% in tight "
      "bursts (<=25 ms gaps)\n",
      result.witness.size(),
      100.0 * static_cast<double>(repeats) /
          static_cast<double>(result.witness.size()),
      100.0 * static_cast<double>(tight_gaps) /
          static_cast<double>(result.witness.size()));

  // Replay the witness to prove it is self-contained.
  auto victim = std::make_unique<blink::BlinkNode>(blink_cfg);
  victim->monitor_prefix(kVictim, 0, 1);
  synth.replay(result.witness, *victim);
  ctx.out.raw(
      "replay on a fresh Blink instance: %zu reroute(s) triggered\n",
      victim->reroutes().size());
  ctx.out.raw(
      "\nthe fuzzer rediscovered the paper's attack recipe: keep "
      "flows alive and\nretransmit in synchronized bursts — exactly "
      "the §3.1 construction.\n");
  return Table{};
}

INTOX_REGISTER_SCENARIO(kSynthesis,
                        {"attack.synthesis", "ATTACK-SYNTH",
                         "§5-II automated attack discovery vs Blink",
                         declare_synthesis, run_synthesis});

// ------------------------------------------------------- egress.steering

void declare_steering(KnobSet& knobs) {
  knobs.declare_bool("attack", false,
                     "enable the MitM degrading the good paths");
}

Table run_steering(Ctx& ctx) {
  const bool attack = ctx.knobs.b("attack");

  egress::EgressExperimentConfig cfg;
  cfg.attack = attack;
  ctx.out.raw(
      "edge PoP with peering paths: 0 (10 ms), 1 (14 ms), "
      "2 (25 ms, ATTACKER-TAPPED)\n%s\n\n",
      attack ? "MitM degrading paths 0 and 1 from t = 10 s"
             : "no attack (pass --set attack=true to enable)");

  const auto r = egress::run_egress_attack_experiment(cfg);

  ctx.out.raw("preferred path before: %zu\n", r.preferred_before);
  ctx.out.raw("preferred path after:  %zu%s\n", r.preferred_after,
              r.preferred_after == cfg.attacker.attacker_path
                  ? "  <- the attacker's path"
                  : "");
  ctx.out.raw("mean user RTT:         %.1f ms -> %.1f ms\n",
              r.mean_rtt_before_ms, r.mean_rtt_after_ms);
  ctx.out.raw("time on attacker path: %.0f%% of post-warmup epochs\n",
              r.attacker_path_fraction * 100.0);
  ctx.out.raw("packets dropped:       %llu of %llu (%.1f%%)\n",
              static_cast<unsigned long long>(r.attacker_dropped),
              static_cast<unsigned long long>(r.packets_total),
              r.packets_total
                  ? 100.0 * static_cast<double>(r.attacker_dropped) /
                        static_cast<double>(r.packets_total)
                  : 0.0);
  if (attack) {
    ctx.out.raw(
        "\nthe edge's *passive* measurements are its weakness: "
        "whoever shapes the\nflows shapes the measurements, and "
        "the best honest paths lose by forfeit.\n");
  }
  return Table{};
}

INTOX_REGISTER_SCENARIO(kSteering,
                        {"egress.steering", "EGRESS-STEER",
                         "§3.2 egress-selection steering, narrated",
                         declare_steering, run_steering});

}  // namespace

int scenario_anchor_examples() { return 0; }

}  // namespace intox::scenario
