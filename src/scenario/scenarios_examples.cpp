// The two library examples, registered as scenarios so the `intox`
// driver runs them: the smallest end-to-end use of the library, and the
// §5-II fuzzer that rediscovers the Blink attack. Each prints free-form
// lines rather than the bench table conventions and claims what it
// shows.
#include <cstdint>
#include <memory>
#include <string>

#include "blink/blink_node.hpp"
#include "dataplane/switch.hpp"
#include "scenario/registry.hpp"
#include "sim/network.hpp"
#include "supervisor/attack_synth.hpp"
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

void run_quickstart(Ctx& ctx) {
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

  ctx.out.row("quickstart: simulated %g s", ctx.knobs.d("horizon_s"));
  ctx.out.row("  flows:      %zu legit, %zu malicious", pop.legit_count(),
              pop.malicious_count());
  ctx.out.row("  switch:     %llu forwarded, %llu no-route drops",
              static_cast<unsigned long long>(sw.counters().forwarded),
              static_cast<unsigned long long>(
                  sw.counters().dropped_no_route));
  ctx.out.row("  delivered:  %llu packets",
              static_cast<unsigned long long>(delivered));
  ctx.out.row("  events:     %llu processed",
              static_cast<unsigned long long>(sched.events_processed()));
  ctx.out.claim(delivered > 0,
                "the workload crosses the switch to the destination host");
}

// ------------------------------------------------------ attack.synthesis

void declare_synthesis(KnobSet& knobs) {
  knobs.declare_u64("iterations", 6000, "fuzzer iteration budget", 1,
                    10000000);
  knobs.declare_u64("seed", 7, "fuzzer seed");
}

void run_synthesis(Ctx& ctx) {
  const net::Prefix kVictim{net::Ipv4Addr{10, 0, 0, 0}, 8};

  supervisor::SynthConfig cfg;
  cfg.flow_pool = 64;
  cfg.sequence_length = 1200;
  cfg.max_iterations = ctx.knobs.u("iterations");
  cfg.seed = ctx.knobs.u("seed");

  blink::BlinkConfig blink_cfg;
  blink_cfg.cells = 16;  // small instance: tractable demo

  ctx.out.row(
      "searching for a packet sequence that makes Blink reroute %s...",
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

  if (result.found) {
    ctx.out.row("ATTACK FOUND after %zu candidate sequences.",
                result.iterations);
  } else {
    ctx.out.row("no attack found in %zu iterations (best score %.0f)",
                result.iterations, result.best_score);
  }
  ctx.out.claim(result.found, "the fuzzer finds a rerouting sequence "
                              "within its iteration budget");
  if (!result.found) return;

  // Characterize the witness: how §3.1-shaped is it?
  std::size_t repeats = 0, tight_gaps = 0;
  for (const auto& g : result.witness) {
    repeats += g.repeat_seq;
    tight_gaps += g.gap_ms <= 25;
  }
  ctx.out.row(
      "witness: %zu packets, %.0f%% duplicate-seq, %.0f%% in tight "
      "bursts (<=25 ms gaps)",
      result.witness.size(),
      100.0 * static_cast<double>(repeats) /
          static_cast<double>(result.witness.size()),
      100.0 * static_cast<double>(tight_gaps) /
          static_cast<double>(result.witness.size()));

  // Replay the witness to prove it is self-contained.
  auto victim = std::make_unique<blink::BlinkNode>(blink_cfg);
  victim->monitor_prefix(kVictim, 0, 1);
  synth.replay(result.witness, *victim);
  ctx.out.row("replay on a fresh Blink instance: %zu reroute(s) triggered",
              victim->reroutes().size());
  ctx.out.claim(!victim->reroutes().empty(),
                "the witness alone makes a fresh Blink instance reroute");
  ctx.out.row();
  ctx.out.row("the fuzzer rediscovered the paper's attack recipe: keep "
              "flows alive and");
  ctx.out.row("retransmit in synchronized bursts — exactly the §3.1 "
              "construction.");
}

}  // namespace

const Scenario kQuickstart{"quickstart", "QUICKSTART",
                           "smallest end-to-end use of the library",
                           declare_quickstart, run_quickstart};

const Scenario kAttackSynthesis{"attack.synthesis", "ATTACK-SYNTH",
                                "§5-II automated attack discovery vs Blink",
                                declare_synthesis, run_synthesis};

}  // namespace intox::scenario
