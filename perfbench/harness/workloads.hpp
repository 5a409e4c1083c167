// The three benchmark workloads, rebuilt from the libraries' public APIs
// so the harness can time each call it makes into a layer:
//
//   blink-hijack  the `blink.e2e` scenario: trace + bots over a 10G
//                 ingress link into a RoutedSwitch with a BlinkNode stage
//                 and two egress links, 300 s, one thread.
//   blink-fig2    kFig2Trials `blink::run_fig2_experiment` trials that
//                 feed BlinkNode::process directly, on a 2-worker
//                 sim::ParallelRunner.
//   pcc-fleet     the 48-flow `pcc.fleet` pair (clean, then omniscient
//                 MitM) on a RED bottleneck, back to back, one thread.
//
// Each simulation reports its setup and run-phase wall time, its exact
// work counts and a digest of its result, and runs its own correctness
// checks (packet conservation and the workload's headline claim).
#pragma once

#include <cstdint>
#include <vector>

#include "blink/attacker.hpp"
#include "harness/probe.hpp"
#include "pcc/experiment.hpp"

namespace intox::perfbench {

enum class Workload { kBlinkHijack, kBlinkFig2, kPccFleet };

inline constexpr std::size_t kFig2Trials = 4;
inline constexpr std::size_t kFig2Workers = 2;
inline constexpr std::size_t kPccFleetFlows = 48;

/// One simulation's measurements. Counts are exact and repeat for a seed.
struct SimStats {
  double setup_s = 0.0;  // seed until the first simulated event
  double run_s = 0.0;    // run_until to the horizon
  std::uint64_t pkts = 0;  // packets injected into the simulated network
  std::uint64_t events = 0;
  std::uint64_t queue_hwm = 0;
  std::uint64_t forks = 0;  // Rng forks: flow drivers and PCC senders
  std::uint64_t flows = 0;  // trafficgen drivers
  std::uint64_t driver_bytes = 0;
  std::uint64_t link_delivered = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t retx_detections = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t decisions = 0;  // summed over every PCC sender
  std::uint64_t inconclusive = 0;
  std::uint64_t mitm_observed = 0;
  std::uint64_t mitm_dropped = 0;
  std::uint64_t digest = 0;
  std::uint32_t checks_run = 0;
  std::uint32_t checks_failed = 0;
  const char* first_failure = nullptr;
  Probe probe;  // filled only by a traced run

  void expect(bool ok, const char* what) {
    ++checks_run;
    if (!ok && checks_failed++ == 0) first_failure = what;
  }
};

/// One repetition of a workload.
struct WorkloadRun {
  std::vector<SimStats> sims;  // fixed order, so digests compare by index
  double wall_s = 0.0;
  std::vector<double> trial_s;  // blink-fig2: per-trial wall seconds
  double shard_imbalance = 0.0;  // blink-fig2: RunReport max/mean shard
};

enum class Mode {
  kUntraced,
  kTraced,     // attaches a Probe to every simulation
  kSetupOnly,  // stops each simulation after its setup (setup_s samples)
};

/// Runs one repetition.
WorkloadRun run_workload(Workload workload, std::uint64_t seed, Mode mode);

/// Seed -> library configuration, shared with the equivalence check.
blink::Fig2Config fig2_config(std::uint64_t seed, std::size_t trial);
pcc::PccExperimentConfig pcc_fleet_config(std::uint64_t seed, bool attack);

/// Outcome of one rebuilt simulation in the library's own result types,
/// for comparing against the library entry points.
struct HijackOutcome {
  std::uint64_t pkts = 0;
  std::vector<blink::RerouteEvent> reroutes;
  double hijacked_share = 0.0;
};
HijackOutcome hijack_outcome(std::uint64_t seed);
blink::Fig2Result fig2_outcome(const blink::Fig2Config& config);
pcc::PccExperimentResult pcc_outcome(const pcc::PccExperimentConfig& config);

}  // namespace intox::perfbench
