// validate_sweep — the simulation-integrity sweep.
//
// Runs each bench family's configuration (scaled down so the sweep stays
// in test-suite time). Every violated invariant throws, so any silent
// corruption the integrity layer guards against — NaN samples,
// non-monotonic clocks — fails the suite loudly.
// Where a differential oracle exists, the fast path is cross-checked
// against it on the same inputs the benches use.
//
// Future perf PRs must keep this green: it is the harness that says the
// hot paths still compute the statistics the Fig. 2 validation rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blink/attacker.hpp"
#include "blink/cell_process.hpp"
#include "net/packet.hpp"
#include "pcc/experiment.hpp"
#include "pytheas/experiment.hpp"
#include "sim/rng.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "sketch/attack.hpp"
#include "sketch/rotation.hpp"
#include "trafficgen/driver.hpp"
#include "trafficgen/synth.hpp"
#include "validate/oracles.hpp"

namespace intox {
namespace {

// --- BLINK (FIG2 / BLINK-TR configurations) ----------------------------

TEST(ValidateSweep, BlinkFig2GridUnderStatsOracle) {
  // The FIG2 aggregation shape: flow-level cell-process trials resampled
  // onto the bench's 25 s grid, SeriesStats folded in trial order, then
  // every grid cell cross-checked against two-pass exact recomputation.
  blink::CellProcessConfig cfg;  // defaults are the paper's tR/qm
  const std::size_t trials = 24;
  sim::Rng base{42};
  sim::SeriesStats agg{0, sim::seconds(500), sim::seconds(25)};
  std::vector<std::vector<double>> resampled(trials);
  for (std::size_t r = 0; r < trials; ++r) {
    sim::Rng rng = base.fork(r);
    const sim::TimeSeries series = blink::simulate_cell_process(cfg, rng);
    agg.add(series);
    resampled[r] = series.resample(0, sim::seconds(500), sim::seconds(25));
  }
  ASSERT_EQ(agg.points(), resampled[0].size());
  for (std::size_t i = 0; i < agg.points(); ++i) {
    std::vector<double> column;
    for (const auto& row : resampled) column.push_back(row[i]);
    const validate::ExactStats ex = validate::exact_stats(column);
    const sim::RunningStats& cell = agg.at(i);
    ASSERT_EQ(cell.count(), ex.n);
    EXPECT_NEAR(cell.mean(), ex.mean, 1e-9 + std::abs(ex.mean) * 1e-9);
    EXPECT_NEAR(cell.variance(), ex.variance,
                1e-7 + std::abs(ex.variance) * 1e-7);
    EXPECT_DOUBLE_EQ(cell.min(), ex.min);
    EXPECT_DOUBLE_EQ(cell.max(), ex.max);
  }
}

TEST(ValidateSweep, BlinkTrSweepParallelMatchesSerial) {
  // The BLINK-TR Monte-Carlo column: the sharded runner must reproduce
  // the serial fold bit-for-bit (determinism is itself an invariant —
  // thread count may change wall clock and nothing else).
  blink::CellProcessConfig cfg;
  cfg.tr_seconds = 4.0;
  cfg.horizon_seconds = 200.0;
  const std::size_t runs = 64;
  sim::Rng base{7};
  sim::Rng serial_rng{7};
  const double serial =
      blink::empirical_success_rate(cfg, 32, runs, serial_rng);
  for (std::size_t threads : {1u, 4u}) {
    sim::ParallelRunner runner{threads};
    const double parallel =
        blink::empirical_success_rate(cfg, 32, runs, base, runner);
    EXPECT_DOUBLE_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ValidateSweep, BlinkPopulationUnderSchedulerOracle) {
  // The FIG2 packet-level trial, cut to 20 s, with every schedule,
  // reserve, cancel and fire mirrored on the reference queue. The mirror
  // is O(pending) per fire, which lazily built flows keep at ~2.1k.
  blink::Fig2Config cfg = blink::default_fig2_config(0);
  cfg.trace.horizon = sim::seconds(20);
  sim::Scheduler sched;
  sched.enable_oracle();
  ASSERT_TRUE(sched.oracle_enabled());
  sim::Rng rng{cfg.seed};
  blink::BlinkNode node{cfg.blink};
  node.monitor_prefix(cfg.trace.victim_prefix, /*primary=*/0, /*backup=*/1);
  std::uint64_t pkts = 0;
  trafficgen::FlowPopulation pop{sched, rng.fork("drivers"),
                                 [&](net::Packet p) {
                                   ++pkts;
                                   dataplane::PipelineMetadata meta;
                                   node.process(p, meta, sched.now());
                                 }};
  sim::Rng trace_rng = rng.fork("trace");
  for (const auto& f : trafficgen::synthesize_trace(cfg.trace, trace_rng)) {
    pop.add_legit(f);
  }
  sim::Rng bot_rng = rng.fork("malicious");
  trafficgen::MaliciousFlowDriver::Options opts;
  opts.send_period = cfg.trace.pkt_interval;
  for (const auto& f : trafficgen::synthesize_malicious_flows(
           cfg.trace, cfg.malicious_flows, 0, bot_rng,
           blink::kMaliciousTagBase)) {
    pop.add_malicious(f, opts);
  }
  pop.start_all();
  sched.run_until(cfg.trace.horizon);
  pop.stop_all();
  EXPECT_GT(pkts, 100'000u);
  EXPECT_GT(node.retx_detections(), 0u);
  EXPECT_LE(sched.queue_depth_high_water(),
            2 * (cfg.trace.active_flows + cfg.malicious_flows));
}

// --- PCC (PCC-OSC / PCC-FLEET configurations) --------------------------

TEST(ValidateSweep, PccOscillationCleanAndAttacked) {
  pcc::PccExperimentConfig cfg;
  cfg.duration = sim::seconds(20);  // bench uses 90 s; same shape
  cfg.seed = 4;
  const auto clean = pcc::run_pcc_experiment(cfg);
  cfg.attack = true;
  const auto attacked = pcc::run_pcc_experiment(cfg);
  // The full event-loop ran under the invariants: monotonic clock,
  // conserved link time arithmetic, ordered TimeSeries. Sanity on top:
  EXPECT_GT(clean.mean_rate_bps, 0.0);
  EXPECT_GT(clean.decisions, 0u);
  EXPECT_GT(attacked.attacker_observed, 0u);
  // The time-weighted mean of the recorded rate series must agree with
  // the step-function integral over the same window recomputed here.
  const auto& pts = clean.rate.points();
  ASSERT_FALSE(pts.empty());
  const sim::Time from = 0, to = pts.back().first;
  if (to > from) {
    double integral = 0.0;
    sim::Time prev_t = from;
    double prev_v = 0.0;
    for (const auto& [t, v] : pts) {
      if (t > to) break;
      if (t > prev_t) integral += prev_v * static_cast<double>(t - prev_t);
      prev_t = std::max(prev_t, t);
      prev_v = v;
    }
    integral += prev_v * static_cast<double>(to - prev_t);
    EXPECT_NEAR(clean.rate.mean_over(from, to),
                integral / static_cast<double>(to - from),
                1e-6 * std::abs(integral / static_cast<double>(to - from)));
  }
}

TEST(ValidateSweep, PccFleetSharedBottleneck) {
  pcc::PccExperimentConfig cfg;
  cfg.flows = 3;
  cfg.duration = sim::seconds(15);
  cfg.seed = 11;
  const auto r = pcc::run_pcc_experiment(cfg);
  EXPECT_GT(r.mean_rate_bps, 0.0);
  EXPECT_FALSE(r.delivered_bps.empty());
}

// --- Pytheas (PYTH-QOE configuration) ----------------------------------

TEST(ValidateSweep, PytheasPoisoningEpochLoop) {
  pytheas::PoisonConfig cfg;
  cfg.legit_sessions = 60;
  cfg.bot_sessions = 8;
  cfg.epochs = 40;
  cfg.warmup_epochs = 10;
  const auto r = pytheas::run_poisoning_experiment(cfg);
  EXPECT_EQ(r.legit_qoe.size(), cfg.epochs);
  EXPECT_GT(r.mean_qoe_before, 0.0);
}

// --- Sketch (SKETCH-POLLUTE configuration) -----------------------------

TEST(ValidateSweep, SketchPollutionAndRotation) {
  const std::size_t cells = 1024;
  const std::uint32_t hashes = 3, seed = 99;
  std::vector<std::uint64_t> legit;
  for (std::uint64_t k = 1; k <= 200; ++k) legit.push_back(k * 1000003);
  const auto attack =
      sketch::craft_saturating_keys(cells, hashes, seed, 150, 32);
  const auto outcome =
      sketch::run_bloom_pollution(cells, hashes, seed, legit, attack);
  EXPECT_GE(outcome.fill_after, outcome.fill_before);

  sketch::RotationConfig rot;
  rot.cells = 2048;
  rot.rotation_period = 512;
  rot.retained_keys = 256;
  sketch::RotatingBloom rotating{rot};
  for (std::uint64_t k = 0; k < 4096; ++k) rotating.insert(k * 2654435761u);
  EXPECT_EQ(rotating.rotations(), 8u);
}

}  // namespace
}  // namespace intox
