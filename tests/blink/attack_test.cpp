// Integration tests: the §3.1 attack end-to-end at the cell-process and
// packet levels, checked against the closed-form analysis. These are the
// "does Fig. 2 reproduce" tests; the bench prints the full figure.
#include <gtest/gtest.h>

#include "blink/attacker.hpp"
#include "blink/cell_process.hpp"

namespace intox::blink {
namespace {

TEST(CellProcess, MatchesClosedFormMean) {
  CellProcessConfig cfg;  // paper parameters
  sim::Rng rng{1};
  // Average 200 runs at t = 150 s and compare with n * p(t).
  const sim::Time probe = sim::seconds(150);
  sim::RunningStats stats;
  for (int r = 0; r < 200; ++r) {
    sim::Rng sub = rng.fork(static_cast<std::uint64_t>(r));
    auto series = simulate_cell_process(cfg, sub);
    stats.add(series.at(probe));
  }
  const double expected =
      expected_malicious_cells(64, cfg.qm, 150.0, cfg.tr_seconds);
  EXPECT_NEAR(stats.mean(), expected, 1.5);
}

TEST(CellProcess, MajorityReachedWithinBudgetAtPaperParameters) {
  CellProcessConfig cfg;
  sim::Rng rng{2};
  const double rate = empirical_success_rate(cfg, 32, 200, rng);
  EXPECT_GT(rate, 0.99);  // §3.1: attack succeeds with high probability
}

TEST(CellProcess, LowQmRarelySucceeds) {
  CellProcessConfig cfg;
  cfg.qm = 0.005;  // 0.5% malicious traffic
  sim::Rng rng{3};
  const double rate = empirical_success_rate(cfg, 32, 200, rng);
  EXPECT_LT(rate, 0.05);
}

TEST(CellProcess, LongerResidencySlowsAttack) {
  sim::Rng rng{4};
  CellProcessConfig fast;
  fast.tr_seconds = 5.0;
  CellProcessConfig slow;
  slow.tr_seconds = 30.0;
  sim::RunningStats t_fast, t_slow;
  for (int r = 0; r < 100; ++r) {
    sim::Rng a = rng.fork(static_cast<std::uint64_t>(r) * 2);
    sim::Rng b = rng.fork(static_cast<std::uint64_t>(r) * 2 + 1);
    const double tf = time_to_majority(fast, 32, a);
    const double ts = time_to_majority(slow, 32, b);
    if (tf >= 0) t_fast.add(tf);
    if (ts >= 0) t_slow.add(ts);
  }
  ASSERT_GT(t_fast.count(), 50u);
  // With tR = 30 s majority within 510 s is rare; when it happens it is
  // far slower than the tR = 5 s case.
  EXPECT_TRUE(t_slow.count() < 50u || t_slow.mean() > 2.0 * t_fast.mean());
}

TEST(PlanAttack, PaperScaleBotnetSuffices) {
  BlinkConfig cfg;
  const AttackPlan plan = plan_attack(cfg, /*legit_flows=*/2000,
                                      /*tr_seconds=*/8.37,
                                      /*confidence=*/0.95);
  // The paper uses 105 flows (qm = 5.25%); a >= 95%-confidence plan needs
  // fewer than that since 5.25% succeeds with overwhelming probability.
  EXPECT_LE(plan.malicious_flows, 105u);
  EXPECT_GT(plan.malicious_flows, 10u);
  EXPECT_GE(plan.success_probability, 0.95);
  EXPECT_GT(plan.expected_majority_time_s, 0.0);
  EXPECT_LT(plan.expected_majority_time_s, 510.0);
}

TEST(Fig2PacketLevel, ShortRunTracksTheory) {
  // Paper-scale population (2000 legit + 105 malicious flows) but a
  // shortened 160 s horizon to keep unit tests fast; the full 510 s / 50
  // run version is `intox run blink.fig2 --set runs=50`. Note the
  // malicious flow *count* cannot be scaled down with the legit
  // population: with fewer flows than cells the capturable-cell ceiling,
  // not q_m, dominates.
  Fig2Config cfg;
  cfg.trace.horizon = sim::seconds(160);
  cfg.seed = 7;
  const Fig2Result r = run_fig2_experiment(cfg);

  ASSERT_FALSE(r.malicious_sampled.empty());
  // Monotone non-decreasing in expectation: compare start vs end.
  const double early = r.malicious_sampled.mean_over(0, sim::seconds(20));
  const double late =
      r.malicious_sampled.mean_over(sim::seconds(140), sim::seconds(160));
  EXPECT_GT(late, early + 5.0);

  // Sampled-residency estimate should be in the neighbourhood of the
  // configured t_R = 8.37 s (packet-level effects blur it somewhat).
  EXPECT_GT(r.measured_tr_seconds, 4.0);
  EXPECT_LT(r.measured_tr_seconds, 14.0);

  // Theory comparison at t = 150 s. The closed form slightly overshoots
  // the packet-level run because only ~52 of the 64 cells are reachable
  // by at least one of the 105 malicious flows (hash-capture ceiling),
  // hence the asymmetric tolerance.
  const double expected = expected_malicious_cells(64, 0.0525, 150.0, 8.37);
  const double observed = r.malicious_sampled.at(sim::seconds(150));
  EXPECT_GT(observed, expected * 0.55);
  EXPECT_LT(observed, expected * 1.25);
}

TEST(Fig2PacketLevel, AttackCausesReroute) {
  Fig2Config cfg;
  cfg.trace.horizon = sim::seconds(220);
  cfg.seed = 8;
  const Fig2Result r = run_fig2_experiment(cfg);
  // Once the sample is majority-malicious the duplicate bursts trip the
  // failure inference: traffic to the victim prefix gets hijacked.
  EXPECT_FALSE(r.reroutes.empty());
  EXPECT_GE(r.time_to_majority_seconds, 0.0);
}

TEST(Fig2PacketLevel, NoAttackNoReroute) {
  Fig2Config cfg;
  cfg.trace.active_flows = 200;
  cfg.trace.horizon = sim::seconds(120);
  cfg.malicious_flows = 0;
  cfg.seed = 9;
  const Fig2Result r = run_fig2_experiment(cfg);
  EXPECT_TRUE(r.reroutes.empty());
  EXPECT_LT(r.time_to_majority_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.malicious_sampled.at(sim::seconds(100)), 0.0);
}

}  // namespace
}  // namespace intox::blink
