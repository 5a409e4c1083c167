#include "trafficgen/synth.hpp"

#include <gtest/gtest.h>

#include "sim/stats.hpp"

namespace intox::trafficgen {
namespace {

TEST(TraceSynth, InitialPopulationMatchesTarget) {
  TraceConfig cfg;
  cfg.active_flows = 500;
  sim::Rng rng{1};
  auto flows = synthesize_trace(cfg, rng);
  std::size_t at_zero = 0;
  for (const auto& f : flows) at_zero += (f.start == 0);
  EXPECT_EQ(at_zero, 500u);
}

TEST(TraceSynth, SteadyStateActiveCountNearTarget) {
  TraceConfig cfg;
  cfg.active_flows = 1000;
  cfg.mean_duration = sim::seconds(8.37);
  cfg.horizon = sim::seconds(120);
  sim::Rng rng{2};
  auto flows = synthesize_trace(cfg, rng);

  // Count flows active at a mid-trace instant.
  const sim::Time probe = sim::seconds(60);
  std::size_t active = 0;
  for (const auto& f : flows) {
    if (f.start <= probe && f.start + f.duration > probe) ++active;
  }
  EXPECT_NEAR(static_cast<double>(active), 1000.0, 120.0);
}

TEST(TraceSynth, ExponentialDurationsHaveTargetMean) {
  TraceConfig cfg;
  cfg.mean_duration = sim::seconds(8.37);
  sim::Rng rng{3};
  sim::RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.add(sim::to_seconds(draw_duration(cfg, rng)));
  }
  EXPECT_NEAR(s.mean(), 8.37, 0.15);
}

TEST(TraceSynth, LogNormalDurationsHaveTargetMean) {
  TraceConfig cfg;
  cfg.mean_duration = sim::seconds(5.0);
  cfg.duration_model = DurationModel::kLogNormal;
  sim::Rng rng{4};
  sim::RunningStats s;
  for (int i = 0; i < 200000; ++i) {
    s.add(sim::to_seconds(draw_duration(cfg, rng)));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.35);
}

TEST(TraceSynth, BoundedParetoWithinBounds) {
  TraceConfig cfg;
  cfg.mean_duration = sim::seconds(5.0);
  cfg.duration_model = DurationModel::kBoundedPareto;
  sim::Rng rng{5};
  for (int i = 0; i < 10000; ++i) {
    const double d = sim::to_seconds(draw_duration(cfg, rng));
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, 20.0 * 5.0 + 1e-9);
  }
}

TEST(TraceSynth, TuplesLandInVictimPrefix) {
  TraceConfig cfg;
  cfg.victim_prefix = net::Prefix{net::Ipv4Addr{10, 20, 0, 0}, 16};
  sim::Rng rng{6};
  for (int i = 0; i < 1000; ++i) {
    auto t = random_tuple_to(cfg.victim_prefix, rng);
    EXPECT_TRUE(cfg.victim_prefix.contains(t.dst));
    EXPECT_EQ(t.proto, net::IpProto::kTcp);
  }
}

TEST(TraceSynth, FlowIdsUnique) {
  TraceConfig cfg;
  cfg.active_flows = 200;
  cfg.horizon = sim::seconds(30);
  sim::Rng rng{7};
  auto flows = synthesize_trace(cfg, rng);
  std::set<std::uint64_t> ids;
  for (const auto& f : flows) ids.insert(f.id);
  EXPECT_EQ(ids.size(), flows.size());
}

TEST(TraceSynth, TraceIsAllocatedOnce) {
  // blink.e2e's trace: 2000 flows over 300 s, ~74k specs. Grown by
  // doubling, the vector would end at 2^17 slots, 78% more than it
  // holds; reserved up front, it ends within a few percent.
  TraceConfig cfg;
  cfg.horizon = sim::seconds(300);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::Rng rng{seed};
    const auto flows = synthesize_trace(cfg, rng);
    EXPECT_GT(flows.size(), 70000u);
    EXPECT_LE(flows.capacity(), flows.size() + flows.size() / 20)
        << "seed " << seed;
  }
}

TEST(TraceSynth, MaliciousFlowsTaggedAndSequential) {
  TraceConfig cfg;
  sim::Rng rng{8};
  auto bad = synthesize_malicious_flows(cfg, 105, sim::seconds(1), rng,
                                        /*first_id=*/1000000);
  ASSERT_EQ(bad.size(), 105u);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_TRUE(bad[i].malicious);
    EXPECT_EQ(bad[i].id, 1000000 + i);
    EXPECT_EQ(bad[i].start, sim::seconds(1));
    EXPECT_TRUE(cfg.victim_prefix.contains(bad[i].tuple.dst));
  }
}

TEST(TraceSynth, DeterministicGivenSeed) {
  TraceConfig cfg;
  cfg.active_flows = 100;
  cfg.horizon = sim::seconds(10);
  sim::Rng r1{99}, r2{99};
  auto f1 = synthesize_trace(cfg, r1);
  auto f2 = synthesize_trace(cfg, r2);
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1[i].tuple, f2[i].tuple);
    EXPECT_EQ(f1[i].start, f2[i].start);
    EXPECT_EQ(f1[i].duration, f2[i].duration);
  }
}

}  // namespace
}  // namespace intox::trafficgen
